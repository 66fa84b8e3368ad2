(** Fast Fourier Transform with the same unitary [1/sqrt n] convention
    as {!Dft}.

    Power-of-two lengths use an iterative radix-2 Cooley–Tukey; every
    other length goes through Bluestein's chirp-z algorithm, so the
    transform is O(n log n) for arbitrary [n] and agrees with {!Dft}
    within rounding error.

    There is one transform core, on {!Flat} vectors. Its twiddle
    factors come from a table of [cos]/[sin] of [2π·k/n] computed once
    per size, not from a running product, so no error accumulates
    along a stage. The tables are cached per domain, so transforms may
    run on several domains at once. The
    [Cpx.t array] functions are conversions around that core. *)

(** [fft_real_flat x] is the forward transform of a real signal,
    written straight into a flat vector (how data spectra are
    built). *)
val fft_real_flat : float array -> Flat.t

(** [fft x] is the forward transform. *)
val fft : Cpx.t array -> Cpx.t array

(** [ifft x] is the inverse transform; [ifft (fft x) = x] up to
    rounding. *)
val ifft : Cpx.t array -> Cpx.t array

(** [fft_real x] is the forward transform of a real signal. *)
val fft_real : float array -> Cpx.t array

(** [is_power_of_two n] is true when [n] is a positive power of two. *)
val is_power_of_two : int -> bool

(** [next_power_of_two n] is the smallest power of two that is [>= n].
    Raises [Invalid_argument] for [n <= 0]. *)
val next_power_of_two : int -> int
