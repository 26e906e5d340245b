(** Request-lifecycle tracing: spans, traces, and a bounded ring buffer
    of completed traces.

    A {e span} is one timed phase of request processing (parse, pathname
    resolution, disk read, response write, ...) attributed to a {e
    track} — the process or helper that did the work ("main-loop",
    "helper", "mp-child-1234").  A {e trace} is the ordered set of spans
    for one request, correlated by a collector-assigned id.  Completed
    traces land in a fixed-size ring buffer (FIFO eviction), from which
    they can be exported as Chrome trace-event JSON — loadable in
    Perfetto or chrome://tracing, one track per process/helper — or
    rendered as a one-line breakdown for a slow-request log.

    Timestamps come from the collector's injectable clock (wall clock in
    the live server, virtual time in the simulator), so the same API
    traces both.  Spans opened with {!begin_span}/{!end_span} follow
    stack discipline per trace and are therefore always well-nested;
    {!add_span} splices in a completed span measured elsewhere — the
    seam used to stitch helper work (carried over the completion pipe)
    into the trace of the request that caused it.

    Like the rest of [Obs], a collector is not thread-safe; callers
    serialise access (the live server guards it with its obs mutex). *)

type t
(** A collector: clock, ring buffer and id allocator. *)

type trace
(** One request's in-progress trace. *)

type span
(** An open span handle; close it with {!end_span}. *)

type span_data = {
  name : string;
  track : string;  (** which process/helper did the work *)
  t_start : float;  (** collector-clock seconds *)
  t_stop : float;
  depth : int;  (** nesting depth at [begin_span] time *)
}

type trace_data = {
  id : int;
  label : string;  (** e.g. ["GET /index.html"] *)
  t_begin : float;
  t_end : float;
  spans : span_data list;  (** in start order *)
  truncated : int;  (** spans dropped by the per-trace bound *)
}

(** [create ~clock ?capacity ?max_spans ?track ()] — [clock] supplies
    timestamps (wall or simulated; [Obs] has no clock of its own),
    [capacity] bounds the completed-trace ring (default 256),
    [max_spans] the spans kept per trace (default 64), [track] is the
    default attribution for spans that do not name one (default
    ["main-loop"]).
    @raise Invalid_argument if [capacity] or [max_spans] < 1. *)
val create :
  clock:(unit -> float) ->
  ?capacity:int ->
  ?max_spans:int ->
  ?track:string ->
  unit ->
  t

val capacity : t -> int
val max_spans : t -> int
val now : t -> float

(** [start t ?at ?label ()] opens a trace beginning at [at] (default
    now) with a fresh id. *)
val start : t -> ?at:float -> ?label:string -> unit -> trace

val id : trace -> int
val label : trace -> string
val start_of : trace -> float

(** Set the label once it is known (after the request line parses). *)
val relabel : trace -> string -> unit

(** Open a span now.  Returns a handle even when the per-trace bound is
    hit (the span is then counted in [truncated] and otherwise
    ignored). *)
val begin_span : t -> trace -> ?track:string -> string -> span

(** Close a span at the current clock.  Any spans opened inside it and
    not yet closed are closed at the same instant (nesting stays
    well-formed).  Closing a closed span is a no-op. *)
val end_span : t -> span -> unit

(** Splice in a completed span with explicit boundaries — work measured
    in another process/thread, stitched into this request's trace. *)
val add_span :
  t -> ?track:string -> name:string -> start:float -> stop:float -> trace -> unit

(** Zero-duration marker span (accept, keep-alive reuse, close). *)
val instant : t -> trace -> ?track:string -> string -> unit

(** Close the trace at [at] (default now): remaining open spans are
    closed, the trace enters the ring (evicting the oldest when full),
    and its data is returned. *)
val finish : t -> ?at:float -> trace -> trace_data

(** Traces finished so far. *)
val completed : t -> int

(** Traces evicted from the ring. *)
val evicted : t -> int

(** Ring contents, oldest first. *)
val snapshot : t -> trace_data list

val reset : t -> unit

(** {2 Export} *)

(** Traces (a {!snapshot}, or several rings' together) as a Chrome
    trace-event JSON document ([{"traceEvents":[...]}]): one complete
    ("ph":"X") event per span, timestamps in microseconds relative to
    the earliest trace, plus process-name metadata so each distinct
    track renders as its own Perfetto track. *)
val to_chrome_json : trace_data list -> string

(** One-line span breakdown, for the slow-request log: label, total
    duration, then each span as [name dur@track]. *)
val summary : trace_data -> string

(** {2 Compact binary records}

    Fixed little-endian encoding of one [trace_data], for carrying a
    finished trace across process boundaries (the MP children's shared
    trace ring).  Label, span names and tracks are truncated to 255
    bytes, spans to 255; the id is not carried (the reader assigns its
    own).  A typical request encodes in a few hundred bytes. *)

val to_binary : trace_data -> string

(** [of_binary s ~pos] decodes one record at [pos], returning it and the
    offset just past it; [None] on malformed or short input. *)
val of_binary : string -> pos:int -> (trace_data * int) option
