(** Complex vectors stored flat: one unboxed [float array] of length
    [2n] holding [n] coefficients with real and imaginary parts
    interleaved, [re] of coefficient [f] at index [2f] and [im] at
    [2f + 1].

    A [Cpx.t array] is an array of pointers to separately boxed
    complexes, so every loop over it chases scattered heap blocks and
    allocates a fresh block per arithmetic step. The flat layout keeps
    a spectrum in one contiguous block and lets the distance kernels
    below run without allocating in their inner loops. They are the
    only implementations of the frequency-domain distances used by the
    index postfilter, the sketch funnel, the sequential scan and the
    join.

    Every kernel keeps the operation order of the boxed code it
    replaces — [Cpx.mul s x] (re [= sr·xr − si·xi], im
    [= sr·xi + si·xr]), then [Cpx.sub], then [re² + im²] added to a
    running sum in frequency order — so its results are bit-identical
    to that code on the same inputs. *)

type t = float array

(** [length x] is the number of complex coefficients, [Array.length x / 2]. *)
val length : t -> int

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

    With [?stretch] the data side is [s_f · x_f]; without it, [x_f].
    All three raise [Invalid_argument] when [x], [q] or the stretch
    differ in length. *)

(** [sq_distance ?stretch x q] is [Σ_f |s_f x_f − q_f|²] over every
    coefficient: the squared exact distance of a transformed series
    to a query (Parseval, Eq. 8). *)
val sq_distance : ?stretch:t -> t -> t -> float

(** [sq_distance_at ?stretch ~freqs x q] is the same sum restricted to
    the coefficients listed in [freqs], in that order — a lower bound
    on {!sq_distance} (Lemma 1). Raises [Invalid_argument] on a
    frequency outside [0, length x). *)
val sq_distance_at : ?stretch:t -> freqs:int array -> t -> t -> float

(** [sq_distance_abandon ?stretch ~limit x q] accumulates the sum of
    {!sq_distance} in frequency order and stops as soon as the running
    sum exceeds [limit] (the early-abandon scan of Section 5). It
    returns the sum reached and the number of coefficients read; the
    scan was abandoned exactly when that sum is [> limit], and
    otherwise read every coefficient and the sum equals
    {!sq_distance}. *)
val sq_distance_abandon : ?stretch:t -> limit:float -> t -> t -> float * int
