(** Mapped-file cache for the live server — the paper's mmap'd chunk
    cache (§4) on the live side.

    Bodies are [Unix.map_file] Bigarray mappings (with a read-and-copy
    fallback for filesystems that refuse to map), so a cache hit serves
    file bytes straight from the mapping via a gather write with zero
    userspace copies.  Entries carry pre-rendered 200 {e and} 304
    headers (keep-alive and close variants, aligned per server config) —
    the header cache of §4.3 for free, extended to conditional replies
    so a cached 304 is a single gather write of one pre-built iovec.
    Bounded by total resident bytes (body + headers); replacement and
    admission are pluggable via {!Flash_cache.Policy} (LRU, always-admit
    by default), and the cache can share a {!Flash_cache.Budget} with
    others.  A mapped-bytes gauge tracks how much file data is currently
    mapped through the cache.

    {b Variants.}  Alternate representations (today: gzip) live in the
    same store under a derived key, so one policy, one capacity and one
    shared budget govern every representation.  A variant entry carries
    the {e origin's} validators ([mtime], [size]) and is dropped
    whenever its origin is evicted or invalidated — a variant can never
    outlive the plain file it encodes.

    Eviction stops charging the mapping immediately (the gauge drops);
    the [munmap] itself happens when the last reference dies — an
    in-flight response may still be sending from the mapping, so the
    unmap is delegated to the runtime finalizer rather than issued
    eagerly (documented deviation from Flash's explicit unmaps; the
    simulator's [Mmap_cache] models those faithfully). *)

type entry = {
  body : Iovec.bigstring;  (** mmap-backed when [mapped] *)
  mapped : bool;
  mtime : float;  (** origin file's mtime (also for variants) *)
  size : int;  (** origin file's byte size (also for variants) *)
  etag : string;  (** rendered strong validator, quotes included *)
  encoding : string option;  (** [Some "gzip"] for a variant entry *)
  header_keep : Iovec.bigstring;
      (** rendered 200 header, [Connection: keep-alive], aligned *)
  header_close : Iovec.bigstring;  (** same, [Connection: close] *)
  header_304_keep : Iovec.bigstring;
      (** rendered 304 reply (headers only), keep-alive *)
  header_304_close : Iovec.bigstring;  (** same, [Connection: close] *)
}

(** Length of the cached body in bytes — the origin size for plain
    entries, the compressed length for variants. *)
val body_length : entry -> int

(** Total resident weight of an entry (body plus its four pre-rendered
    headers) — what it is charged against capacity and budget. *)
val entry_weight : entry -> int

type t

val create :
  ?policy:Flash_cache.Policy.kind ->
  ?admission:Flash_cache.Policy.admission ->
  ?budget:Flash_cache.Budget.t ->
  capacity_bytes:int ->
  unit ->
  t

(** [find t path ~mtime ~size] — hit only if both the cached mtime and
    size match: a same-second rewrite that changes the length must not
    serve the stale mapping.  A stale entry is dropped through the evict
    hook, so the mapped-bytes gauge cannot drift. *)
val find : t -> string -> mtime:float -> size:int -> entry option

(** Lookup without a freshness check — how Flash's caches trust entries
    between invalidations; staleness is corrected when a helper's fresh
    stat disagrees. *)
val find_trusted : t -> string -> entry option

(** [find_variant t path ~encoding ~mtime ~size] — like {!find} but for
    an alternate representation; [mtime]/[size] are the {e origin's}
    validators, so rewriting the origin invalidates its variants. *)
val find_variant :
  t -> string -> encoding:string -> mtime:float -> size:int -> entry option

(** Insert if the admission policy accepts it (rejection is silent: the
    response is served without caching). *)
val insert : t -> string -> entry -> unit

(** Insert an alternate representation under [path]'s variant key and
    couple its lifetime to the origin: when the origin entry is evicted,
    invalidated or removed, the variant is dropped too (through the
    evict hook, so gauges stay exact). *)
val insert_variant : t -> string -> encoding:string -> entry -> unit

val remove : t -> string -> unit

(** {1 Pinned hot tier}

    The cache warmer pins its ranked hot set so the victim walk cannot
    evict it between mining cycles.  Pinning is by origin path; gzip
    variants stay under normal replacement (they are re-derivable from
    the pinned origin).  Pinned entries still count against capacity
    and any shared budget. *)

(** Pin a resident entry; [false] if [path] is not resident. *)
val pin : t -> string -> bool

(** Release a pin; [false] if [path] was not pinned.  The entry rejoins
    normal replacement order. *)
val unpin : t -> string -> bool

val unpin_all : t -> unit
val pinned : t -> string -> bool
val pinned_bytes : t -> int
val pinned_count : t -> int
val pinned_paths : t -> string list

(** Residency probe that does not touch the hit/miss counters (unlike
    {!find_trusted}) — the warmer's "already cached?" check. *)
val resident : t -> string -> bool

(** {1 Warming inputs}

    Per-path demand the miner folds into its ranking.  Variant keys are
    skipped: a variant cannot be prefetched directly and its demand
    already shows on its origin. *)

(** Fold over resident origin paths with their hit/recency/size
    stats. *)
val fold_paths :
  t -> init:'a -> f:('a -> string -> Flash_cache.Store.key_stat -> 'a) -> 'a

(** Paths the admission doorkeeper has seen and turned away — demand
    that never became resident. *)
val rejected_paths : t -> string list

(** [map fd ~size]: a shared read-only mapping of [size] bytes of
    [fd], or [None] when [size] is 0 or the filesystem refuses to map.
    Mapping reads no file data, so it does not wait on the disk. *)
val map : Unix.file_descr -> size:int -> Iovec.bigstring option

(** Map [size] bytes of [fd] (position-independent; the descriptor may
    be closed afterwards, the mapping survives).  Falls back to reading
    the contents into a fresh buffer when mapping fails; the second
    component is [true] when the body is a real mapping. *)
val map_body : Unix.file_descr -> size:int -> Iovec.bigstring * bool

val bytes : t -> int
val entries : t -> int

(** File bytes currently mapped through cache entries.  Drops on
    eviction/removal — the regression signal that eviction releases
    mappings. *)
val mapped_bytes : t -> int

val hits : t -> int
val misses : t -> int

(** Entries pushed out by capacity pressure (explicit {!remove}s are not
    counted). *)
val evictions : t -> int

(** Policy name, capacity and counters for /server-status. *)
val stats : t -> Flash_cache.Store.stats
