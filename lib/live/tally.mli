(** The server's counters, gauges and request-latency histogram, kept in
    one fixed-layout slab of machine integers with one row per writer.

    A writer only ever touches its own row; readers sum every row.  So
    the slab needs no atomics: in MP mode it is mapped [MAP_SHARED]
    before the fork, child [i] claims row [i], and any process reading
    it — the parent, or whichever child serves a scrape — sees the
    whole server's totals.  The other modes use one private row (MT
    threads share it under the server's observability mutex).  A sum
    taken while a row is being written may show one field updated and
    the next not yet; a quiescent server never shows that. *)

type t

(** A counter or gauge slot within a row. *)
type field

val requests : field
val connections : field
val errors : field

(** [status_class i] for [i] in [0..3]: 2xx, 3xx, 4xx, 5xx responses. *)
val status_class : int -> field

val writev_calls : field
val write_calls : field
val bytes_copied : field
val bytes_sent : field

(** Accepts shed on EMFILE/ENFILE. *)
val accept_shed : field

(** Gauges: connections open now, file bytes the writer's cache maps. *)
val active : field

val mapped : field

(** The writer's file-cache counters and gauges, stored whole (with
    {!set}) from its own cache: hits, misses, evictions, resident
    entries and bytes, and admission decisions. *)
val cache_hits : field

val cache_misses : field
val cache_evictions : field
val cache_entries : field
val cache_bytes : field
val cache_admitted : field
val cache_rejected : field

(** [map_shared n]: [n] zeroed words in a [MAP_SHARED] mapping of an
    unlinked temporary file, shared by processes forked afterwards. *)
val map_shared :
  int -> (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

(** [create ~rows ()] is a zeroed slab of [rows] rows whose writer owns
    row 0.  With [~shared:true] it lives in {!map_shared} memory, so
    processes forked afterwards share it. *)
val create : ?shared:bool -> rows:int -> unit -> t

(** [claim t i]: this writer owns row [i] from now on.
    @raise Invalid_argument if [i] is not a row. *)
val claim : t -> int -> unit

(** [add] and [set] write this writer's row; [sum] reads every row. *)
val add : t -> field -> int -> unit

val set : t -> field -> int -> unit
val sum : t -> field -> int

(** Record one latency (seconds) in this writer's row, on
    {!Obs.Histogram}'s default bucket ladder.  Values above the top
    bucket (about an hour) count in it; count and max stay exact.
    Non-finite values are ignored. *)
val record_latency : t -> float -> unit

(** The latency histogram of every row together. *)
val latency : t -> Obs.Histogram.t
