(** Every MP child's finished request traces in one [MAP_SHARED] ring,
    mapped before the fork with a row per writer as {!Tally} is, so any
    process serving [/server-trace] renders the whole server.  A row
    keeps its newest [capacity] traces in 1 KB slots: an
    {!Obs.Trace.to_binary} record written between a leading and a
    trailing sequence stamp.  A reader skips a slot whose stamps differ
    (being rewritten, or its writer died mid-record): never a torn
    record. *)

type t

(** [create ~rows ~capacity]: an empty ring whose writer owns row 0.
    @raise Invalid_argument if [rows] or [capacity] < 1. *)
val create : rows:int -> capacity:int -> t

(** [claim t i]: this writer owns row [i] from now on.
    @raise Invalid_argument if [i] is not a row. *)
val claim : t -> int -> unit

(** Store a finished trace in this writer's row, over its oldest once
    the row is full.  A record too large for a slot keeps its leading
    spans and counts the rest in [truncated]. *)
val push : t -> Obs.Trace.trace_data -> unit

(** Every row's intact records by finish time, with ids unique in the
    ring. *)
val snapshot : t -> Obs.Trace.trace_data list

(** Traces pushed, and traces overwritten, over every row. *)
val completed : t -> int

val evicted : t -> int

(** Slots over every row: the most traces a snapshot holds. *)
val capacity : t -> int

(** Test seam: spoil the leading stamp of row [row]'s newest record, as
    a writer stopped in the middle of it leaves the slot. *)
val tear : t -> row:int -> unit
