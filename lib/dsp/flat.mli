(** Complex vectors stored flat: one unboxed [float array] of length
    [2m] holding [m] coefficients with real and imaginary parts
    interleaved, [re] of coefficient [f] at index [2f] and [im] at
    [2f + 1].

    A [Cpx.t array] is an array of pointers to separately boxed
    complexes, so every loop over it chases scattered heap blocks and
    allocates a fresh block per arithmetic step. The flat layout keeps
    a spectrum in one contiguous block and lets the distance kernels
    below run without allocating in their inner loops.

    {b Half spectra.} The unitary DFT of a real length-[n] series is
    conjugate-symmetric, [X_(n-f) = conj X_f], so coefficients
    [0 .. n/2] ({!half_length}[ n] of them) determine the rest. Data
    and query spectra, and the stretches applied to them, are stored in
    this half layout ({!half}). Coefficient [f] then stands for itself
    and its mirror: its weight [w_f], its multiplicity in the full
    spectrum, is 1 for the DC term and, when [n] is even, for the
    Nyquist term [n/2], and 2 for every other one.

    The three kernels below are the only exact frequency-domain
    distances in simq: the index postfilter, the sketch coarse bound,
    the sequential scan and the join all call them. Each adds
    [w_f · |s_f x_f − q_f|²] to a running sum in frequency order. The
    term is formed in the operation order of the boxed code —
    [Cpx.mul s x] (re [= sr·xr − si·xi], im [= sr·xi + si·xr]), then
    [Cpx.sub], then [re² + im²] — so each kernel is bit-identical to
    that boxed weighted sum on the same inputs, and {!sq_distance} and
    a completed {!sq_distance_abandon} are bit-identical to each
    other. *)

type t = float array

(** [length x] is the number of complex coefficients, [Array.length x / 2]. *)
val length : t -> int

(** [half_length n] is [n / 2 + 1], the number of coefficients in the
    half spectrum of a real length-[n] series. *)
val half_length : int -> int

(** [half x] is coefficients [0 .. n/2] of the full length-[n]
    spectrum [x] of a real series: the half layout. Raises
    [Invalid_argument] on an empty vector. *)
val half : t -> t

(** [get x f] is coefficient [f] as a boxed complex. *)
val get : t -> int -> Cpx.t

(** [of_cpx zs] flattens a boxed complex array. *)
val of_cpx : Cpx.t array -> t

(** [to_cpx x] is the boxed form of every coefficient. *)
val to_cpx : t -> Cpx.t array

(** [sub_cpx x pos len] is coefficients [pos .. pos + len - 1] as boxed
    complexes (the few index features of an entry). Raises
    [Invalid_argument] when the range is out of bounds. *)
val sub_cpx : t -> int -> int -> Cpx.t array

(** [bit_equal x y] is true when [x] and [y] have the same length and
    every component has the same bit pattern (so [0.] differs from
    [-0.] and a NaN equals itself) — the test for "bit-identical". *)
val bit_equal : t -> t -> bool

(** [of_real xs] is the real signal [xs] with zero imaginary parts. *)
val of_real : float array -> t

(** [constant n z] is [n] copies of [z]. *)
val constant : int -> Cpx.t -> t

(** [mul s x] is the element-wise product [s_f · x_f], in
    [Cpx.mul s_f x_f] order. Raises [Invalid_argument] on length
    mismatch. *)
val mul : t -> t -> t

(** [scale a x] multiplies every coefficient by the real factor [a]. *)
val scale : float -> t -> t

(** {1 Distance kernels}

    Every operand is the half spectrum of a real length-[n] series:
    {!half_length}[ n] coefficients. With [?stretch] the data side is
    [s_f · x_f]; without it, [x_f]. All three raise [Invalid_argument]
    when [n < 1] or when [x], [q] or the stretch has another length. *)

(** [sq_distance ?stretch ~n x q] is [Σ_f w_f |s_f x_f − q_f|²] over
    coefficients [0 .. n/2], with the weights [w_f] above: the
    full-spectrum sum, hence the squared exact distance of a
    transformed series to a query (Parseval, Eq. 8), when the stretch
    is itself a half spectrum of a real transformation. *)
val sq_distance : ?stretch:t -> n:int -> t -> t -> float

(** [sq_distance_at ?stretch ~n ~freqs x q] is the same weighted sum
    restricted to the coefficients listed in [freqs], in that order — a
    lower bound on {!sq_distance} (Lemma 1) when [freqs] has no
    repeats. Raises [Invalid_argument] on a frequency outside
    [0, n/2]. *)
val sq_distance_at : ?stretch:t -> n:int -> freqs:int array -> t -> t -> float

(** [sq_distance_abandon ?stretch ~n ~limit x q] accumulates the sum of
    {!sq_distance} in frequency order and stops as soon as the running
    sum exceeds [limit] (the early-abandon scan of Section 5). It
    returns the sum reached and the number of half-spectrum
    coefficients read; the scan was abandoned exactly when that sum is
    [> limit], and otherwise read every coefficient and the sum equals
    {!sq_distance} bit for bit. *)
val sq_distance_abandon :
  ?stretch:t -> n:int -> limit:float -> t -> t -> float * int
