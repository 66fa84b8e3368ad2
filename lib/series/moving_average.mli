(** Moving averages (Section 1, Example 1.1; Section 3.2).

    The paper uses a {e circular} m-day moving average — the window wraps
    from the beginning of the sequence to its end — because that variant
    is exactly a circular convolution and hence expressible as the
    frequency-domain transformation [T_mavg = (a, 0)]. When the window is
    small relative to the sequence both variants are almost the same. *)

(** [circular w s] is the circular moving average: output value [i]
    averages [s_i, s_(i-1), …] with the weights of [w], indices modulo
    the length. Output has the same length as [s]. Raises
    [Invalid_argument] when the window is wider than the series. *)
val circular : Simq_dsp.Window.t -> Series.t -> Series.t

(** [sliding m s] is the classical (non-circular) m-day moving average of
    length [length s - m + 1], each output the mean of a window of [m]
    consecutive values. *)
val sliding : int -> Series.t -> Series.t

(** [repeated k w s] applies [circular w] [k] times — the successive
    moving averages of Example 2.3. [k = 0] is the identity. *)
val repeated : int -> Simq_dsp.Window.t -> Series.t -> Series.t

(** [via_dft w s] computes the circular moving average in the frequency
    domain: multiply the half spectrum by the window's transfer
    function, complete it by conjugate symmetry and transform back.
    Agrees with [circular] up to rounding; it is the executable
    statement that [T_mavg] really is the moving average. *)
val via_dft : Simq_dsp.Window.t -> Series.t -> Series.t
