(** The [/server-status] views, rendered from one registry walk.

    Every value on the page is a sample of the walk: configuration
    strings are labels of [flash_build_info] and [flash_config_info],
    and the helper, trace, health, guard and warm blocks appear exactly
    when their series are registered.  The few facts the walk does not
    carry are passed in. *)

(** What a sharded server's page says about accept balancing. *)
type sharding = {
  accept : string;  (** ["reuseport"] or ["handoff"] *)
  serving_shard : int;  (** the shard rendering the page; [-1] if none *)
  handoff_shed : int;  (** accepts the coordinator shed on a full ring *)
}

(** [body ~stall_threshold ~sharding ~json (summary, all)] renders the
    text page, or the JSON view when [json].  Named fields read
    [summary] (sharded: the aggregate); the per-shard rows and the
    trailing flat metrics block read [all].  [stall_threshold] is the
    loop meter's, in seconds. *)
val body :
  stall_threshold:float ->
  sharding:sharding option ->
  json:bool ->
  Obs.Registry.sample list * Obs.Registry.sample list ->
  string

(** [?json] or [?format=json] selects the JSON view. *)
val wants_json : Http.Request.t -> bool

(** [?window=N] (N > 0) selects the flight-recorder view. *)
val window : Http.Request.t -> int option
