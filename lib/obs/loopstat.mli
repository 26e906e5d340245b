(** Event-loop meter: each iteration measured once.

    An event-driven server must never block between readiness waits; a
    single synchronous disk read freezes every connection (the SPED
    pathology of §3.3 of the Flash paper).  The loop hands over each
    iteration's two halves — seconds blocked in the wait, seconds
    processing what it returned — and the meter keeps:
    - {b iterations}: times the wait returned, each one wakeup;
    - {b ready_fds}: ready descriptors across those wakeups —
      [ready_fds / iterations] is the batching factor the backend
      comparison turns on (select pays O(watched) per wakeup, epoll
      O(ready));
    - {b wait_time} vs {b work_time}: an idle loop is all wait;
    - {b timer_fires}: timer-wheel expirations handled;
    - {b stalls}: work intervals over the threshold.  Blocking in the
      wait is idleness, never a stall.

    The caller measures, so tests drive it with plain numbers.  One
    record per loop, written by the loop thread only (reads from a
    status renderer race benignly against word-sized stores). *)

type t

(** [create ~threshold ()] — [threshold] is the stall limit in seconds.
    @raise Invalid_argument if [threshold <= 0]. *)
val create : threshold:float -> unit -> t

(** [timers_fired t n]: [n] timers expired and are about to run.  The
    loop counts them before their handlers, so a reader that sees a
    handler's effect (a reaped connection) also sees its fire. *)
val timers_fired : t -> int -> unit

(** [iteration t ~waited ~worked ~ready]: one wait returned [ready]
    descriptors after blocking [waited] seconds, then [worked] seconds
    went to them and to the timers that fired.  Negative intervals
    count as zero. *)
val iteration : t -> waited:float -> worked:float -> ready:int -> unit

val threshold : t -> float
val iterations : t -> int
val ready_fds : t -> int
val wait_time : t -> float
val work_time : t -> float
val timer_fires : t -> int
val stalls : t -> int

(** Longest work interval; [0.] before any. *)
val max_stall : t -> float
