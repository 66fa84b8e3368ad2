(** Multi-resolution sketch filtering for similarity queries.

    A sketch is a tiny per-series summary whose distance to the query
    sketch {e lower-bounds} the true (normal-form) distance, so
    dismissing a candidate whose sketch distance already exceeds the
    range can never lose an answer — the funnel preserves the Lemma 1
    guarantee of no false dismissals while the exact postfilter only
    touches the survivors. Two resolutions are kept per series:

    - {b coarse}: the partial frequency-domain distance over the first
      few DFT coefficients, each weighted twice for its conjugate
      mirror (the high-energy ends of the spectrum the k-index itself
      is built on), read from the stored half spectra by
      {!Simq_dsp.Flat.sq_distance_at}; valid for every
      length-preserving transformation because the stretch acts
      coefficient-wise;
    - {b segment}: a piecewise-constant summary — per-segment means of
      the normal form — whose length-weighted mean differences
      lower-bound the euclidean distance by Cauchy–Schwarz. Identity
      queries only, where data and query sides share the time axis.

    Time-warp queries change the series length, so no sketch level
    applies and {!funnel} returns [None] — the query runs exactly as
    without a sketch. *)

type t

type config = {
  coarse : int;
      (** DFT coefficients [1 .. min coarse ((n-1)/2)] read by the
          coarse level, each standing for itself and its conjugate
          mirror (so up to [2 * coarse] terms of the full spectrum).
          Must be >= 1. *)
  segments : int;
      (** segment count of the piecewise-constant level (capped at the
          series length). Must be >= 1. *)
}

(** [{ coarse = 2; segments = 8 }]. *)
val default : config

(** [coarse_freqs ~n ~coarse] is the coarse level's frequency set for
    series of length [n]: [1 .. min coarse ((n-1)/2)], the coefficients
    that have a distinct conjugate mirror (empty for [n <= 2]). *)
val coarse_freqs : n:int -> coarse:int -> int array

(** [create ?config dataset] precomputes the segment sketches of every
    entry in [dataset]. Coarse sketches need no extra storage — they
    read the spectra the dataset already holds. Entries appended to
    the dataset later are sketched on the fly. Raises
    [Invalid_argument] on a non-positive [config] field. *)
val create : ?config:config -> Simq_tsindex.Dataset.t -> t

val config : t -> config

(** [spec_levels spec] is the number of funnel levels available under
    [spec]: 0 for a warp, 2 for the identity, 1 for the other
    length-preserving transformations. Feed it to the admission cost
    model ([sketch_levels]). *)
val spec_levels : Simq_tsindex.Spec.t -> int

(** [funnel t prepared query] is the candidate prefilter for one
    prepared query under the transformation [prepared] (from
    {!Simq_tsindex.Kindex.prepare} on an index over the same data set),
    coarse level first, or [None] when its spec supports no sketch.
    The coarse level applies [prepared]'s stretch, so the stretch is
    computed once per query, not again here. Partially applied
    ([funnel t]) it is the builder {!Simq_tsindex.Kindex.range}'s
    [?sketch] takes. Each level's bound is a lower bound on the exact
    postfilter distance (including the slack needed to absorb
    last-ulp rounding), so {!Simq_tsindex.Kindex} may dismiss on it
    without breaking exact-mode parity. Dismissals are counted in the
    [simq_sketch_filtered_total{level}] metric family. *)
val funnel :
  t ->
  Simq_tsindex.Kindex.prepared ->
  Simq_tsindex.Dataset.entry ->
  Simq_tsindex.Kindex.prefilter option

(** [nn_bound t prepared query] is the strongest per-entry lower bound
    (the max over the available levels), or [None] when the spec of
    [prepared] supports no sketch. Feed it to
    {!Simq_tsindex.Kindex.nearest}[ ~sketch] to defer exact distance
    refinement in the nearest-neighbour traversal. *)
val nn_bound :
  t ->
  Simq_tsindex.Kindex.prepared ->
  Simq_tsindex.Dataset.entry ->
  (Simq_tsindex.Dataset.entry -> float) option
