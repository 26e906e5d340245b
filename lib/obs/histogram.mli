(** Log-bucketed latency histogram.

    Values are assigned to geometrically sized buckets: bucket 0 holds
    everything at or below [lo], and bucket [i >= 1] covers
    [(lo * base^(i-1), lo * base^i]].  Quantile estimates return a
    bucket's upper edge (clamped to the exact observed min/max), so for
    any recorded value [v >= lo] the estimate [e] of the quantile [v]
    realises satisfies [v <= e <= v * base] — the relative error is
    bounded by the log base.

    The structure is a few hundred bytes for any realistic latency range
    (microseconds to hours), grows on demand, and records in O(1).

    Not thread-safe; callers serialise access (the live server guards it
    with its own mutex, the bench merges per-worker instances). *)

type t

(** [create ?base ?lo ()] — [base] is the bucket growth factor
    (default [2^(1/8)], ≈ 9% worst-case relative error), [lo] the
    smallest resolvable value (default [1e-6], i.e. 1µs when recording
    seconds).
    @raise Invalid_argument if [base <= 1] or [lo <= 0]. *)
val create : ?base:float -> ?lo:float -> unit -> t

val base : t -> float
val lo : t -> float

(** Record one observation.  Non-finite values are ignored. *)
val record : t -> float -> unit

val count : t -> int
val sum : t -> float

(** Arithmetic mean of recorded values; [nan] when empty. *)
val mean : t -> float

(** Exact observed extrema; [nan] when empty. *)
val min : t -> float

val max : t -> float

(** [percentile t p] for [p] in [[0, 100]]: the upper edge of the bucket
    holding the value of rank [ceil (p/100 * count)], clamped to the
    exact observed [[min t, max t]].  [nan] when empty.
    @raise Invalid_argument if [p] is outside [[0, 100]]. *)
val percentile : t -> float -> float

(** Observations at or below [x], counting whole buckets only: the
    bucket straddling [x] is excluded, so the result is a lower bound
    within one bucket's population and is monotone in [x] — the shape
    cumulative ([le]-labelled) exposition buckets need. *)
val count_le : t -> float -> int

(** Independent deep copy (snapshotting under a lock). *)
val copy : t -> t

(** [diff newer older] — the observations recorded between the [older]
    snapshot and the [newer] one.  Exact on bucket counts, count and
    sum (merging consecutive diffs reproduces the original); min/max
    are reconstructed from bucket edges, so they carry the usual
    one-bucket relative error.  @raise Invalid_argument if [base]/[lo]
    differ. *)
val diff : t -> t -> t

(** [merge a b] is a fresh histogram equivalent to recording both
    streams.  @raise Invalid_argument if [base]/[lo] differ. *)
val merge : t -> t -> t

(** [of_counts counts ~sum ~min ~max] rebuilds a histogram from its
    bucket counts ([counts.(i)] is bucket [i] of the [base]/[lo] ladder,
    defaults as in {!create}) and the exact [sum], [min] and [max] of
    the values recorded; the count is the sum of [counts].  This is how
    counts kept outside a histogram (e.g. summed over shared-memory
    rows) become one again. *)
val of_counts :
  ?base:float -> ?lo:float -> int array -> sum:float -> min:float ->
  max:float -> t

(** Non-empty buckets as [(lower, upper, count)], lowest first.  Bucket
    counts sum to [count t]. *)
val buckets : t -> (float * float * int) list

val reset : t -> unit
