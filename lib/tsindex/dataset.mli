(** A prepared data set: every series normalised and transformed to the
    frequency domain once, as the paper does before indexing
    (Section 5: “for every time series, we first transformed it to the
    normal form, and then we found its Fourier coefficients”).

    The spectrum stored is that of the {e normal form}; the original
    mean and standard deviation ride along and become the first two
    index dimensions.

    {b Spectrum layout.} Each entry holds its spectrum as one unboxed
    {!Simq_dsp.Flat.t} in the half layout of {!Simq_dsp.Flat.half}: the
    series is real, so its DFT is conjugate-symmetric and only
    coefficients [0 .. n/2] are stored — a [float array] of length
    [2 (n/2 + 1)] (130 floats at [n = 128]) with the real and imaginary
    parts of coefficient [f] at indices [2f] and [2f + 1]. Every exact
    frequency-domain distance (index postfilter, sketch coarse bound,
    sequential scan, join) reads it through the {!Simq_dsp.Flat}
    kernels, which weight each coefficient by its multiplicity in the
    full spectrum, without allocating. The layout is per
    entry, not one data-set-wide slab: in a prototype on 8192 series
    of length 128, a coarse bound over 6553 candidates in R-tree order
    took 0.63 ms with per-entry arrays, 0.53 ms with a slab and 7.0 ms
    over boxed [Complex.t array]s. The slab's ~15% would cost offset
    bookkeeping in {!insert} and in every shard. *)

type entry = {
  id : int;
  name : string;
  series : Simq_series.Series.t;  (** the original series *)
  normal : Simq_series.Series.t;  (** its normal form *)
  spectrum : Simq_dsp.Flat.t;
      (** coefficients [0 .. n/2] of the unitary DFT of [normal], re/im
          interleaved (see above); coefficient 0 is always 0 *)
  mean : float;
  std : float;
}

type t

(** [of_relation ?pool r] prepares every tuple; the per-entry
    normalisation + FFT (the dominant build cost) fans out over [pool]
    (default {!Simq_parallel.Pool.default}) with results identical to a
    sequential build. Raises [Invalid_argument] when the relation is
    empty or holds series of unequal lengths. *)
val of_relation : ?pool:Simq_parallel.Pool.t -> Simq_storage.Relation.t -> t

(** [of_series ?pool ~name batch] shortcut: wraps the batch in a
    relation and prepares it. *)
val of_series :
  ?pool:Simq_parallel.Pool.t -> name:string -> Simq_series.Series.t array -> t

(** [insert t ~name data] validates, stores and prepares one more
    series (appending it to the backing relation); its id is the new
    cardinality minus one. Raises [Invalid_argument] when the length
    differs from the data set's. *)
val insert : t -> name:string -> Simq_series.Series.t -> entry

(** [prepare_query ?normalise q] transforms an external query series the
    same way (it need not have the data-set length — warp queries are
    longer). With [~normalise:false] the series is used verbatim: pass a
    query that is {e already} in the comparison space, e.g. the moving
    average of a normal form when matching “series whose smoothed normal
    forms track this curve”. *)
val prepare_query : ?normalise:bool -> Simq_series.Series.t -> entry

(** [entries t] is a snapshot of the live entries. *)
val entries : t -> entry array
val get : t -> int -> entry
val cardinality : t -> int

(** [series_length t] is the common length [n]. *)
val series_length : t -> int

(** [relation t] is the backing relation (for page-accounting scans). *)
val relation : t -> Simq_storage.Relation.t
