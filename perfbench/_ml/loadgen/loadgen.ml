(* Open-loop HTTP load generator with full response verification.

   One process, one thread, at most two connections.  Request [i] of the
   measured phase falls due at [t0 + i / rate]; it is sent as soon as it
   is due (keep-alive: on the connection with fewer outstanding
   requests, pipelined behind them; churn: on a fresh HTTP/1.0
   connection once one of the two slots is free).  Latency runs from the
   due time, not the send time, so any stall — the server's or a busy
   connection slot — counts against the requests that waited.

   Every response is checked against the docroot: status for the
   request kind (200, 304, 206), Content-Length, Content-Range, and
   every body byte (docroot files are random, so a mixed-up file
   shows).

   The send/receive loop allocates nothing: sockets are driven by the
   C stubs in loadgen_stubs.c, buffers are preallocated, and per-request
   results go to float arrays.  It links no library of the server under
   test.

   Protocol on stdin/stdout (driven by perfbench/run.py):
     -> "ready"            inputs loaded
     <- "port N"           server is listening on 127.0.0.1:N
     -> "warm T F"         warm-up pass done at monotonic time T, with F
                           wrong responses
     <- "go"               run the measured phase
     -> one JSON object    its results
     <- "again"            close the connections, wait for the next
                           "port N" (the next set-up)
   After "warm" and after the results, the next command is awaited;
   any other line, or the end of input, ends the generator. *)

external now : unit -> (float[@unboxed]) = "lg_now" "lg_now_unboxed"
[@@noalloc]

external tight_timers : unit -> unit = "lg_tight_timers" [@@noalloc]

external read_nb : Unix.file_descr -> Bytes.t -> int -> int -> int = "lg_read"
[@@noalloc]

external write_nb : Unix.file_descr -> string -> int -> int -> int = "lg_write"
[@@noalloc]

external poll :
  Unix.file_descr array -> int array -> int array -> int -> (float[@unboxed]) -> int
  = "lg_poll" "lg_poll_unboxed"
[@@noalloc]

external file_eq : Unix.file_descr -> int -> Bytes.t -> int -> int -> bool = "lg_file_eq"
[@@noalloc]

(* ---------------------------------------------------------------- *)
(* Inputs                                                             *)
(* ---------------------------------------------------------------- *)

type inputs = {
  sizes : int array;
  urls : string array;
  paths : string array;  (** the docroot files *)
  fds : Unix.file_descr option array;  (** opened on first use *)
  plan_file : int array;
  plan_kind : int array;
  hot : int array;
  etags : string array;  (** collected by the warm-up pass *)
}

let load dir =
  let b = Bench_inputs.load dir in
  {
    sizes = b.Bench_inputs.sizes;
    urls = b.urls;
    paths = Array.map (fun url -> Bench_inputs.docroot dir ^ url) b.urls;
    fds = Array.make (Array.length b.urls) None;
    plan_file = b.plan_file;
    plan_kind = b.plan_kind;
    hot = b.hot;
    etags = Array.make (Array.length b.urls) "";
  }

(* ---------------------------------------------------------------- *)
(* Connections and response framing                                   *)
(* ---------------------------------------------------------------- *)

let ring = 1 lsl 16
let hdr_cap = 16384

(* Most requests in flight on one keep-alive connection.  Requests due
   beyond it wait in the generator (their latency still runs from the
   due time).  Without a bound, a stall of the host turns into thousands
   of pipelined requests, past what the server buffers (it closes a
   connection with more than 256 KB unparsed) and deep enough to make
   its per-request parse cost grow with the queue. *)
let pipeline_depth = 64

type conn = {
  mutable fd : Unix.file_descr;
  mutable live : bool;
  q : int array;  (** outstanding request ids, ring of [ring] *)
  mutable head : int;  (** first request awaiting its response *)
  mutable sent : int;  (** first request not fully written *)
  mutable tail : int;  (** next free slot *)
  mutable woff : int;  (** bytes of request [sent] already written *)
  hdr : Bytes.t;
  mutable hlen : int;
  mutable in_body : bool;
  mutable eof_wait : bool;  (** churn: body done, waiting for close *)
  mutable body_left : int;
  mutable body_off : int;
  mutable body_file : int;  (** -1: skip the body without checking *)
  mutable good : bool;  (** current response matched so far *)
}

let new_conn () =
  {
    fd = Unix.stdin;
    live = false;
    q = Array.make ring 0;
    head = 0;
    sent = 0;
    tail = 0;
    woff = 0;
    hdr = Bytes.create hdr_cap;
    hlen = 0;
    in_body = false;
    eof_wait = false;
    body_left = 0;
    body_off = 0;
    body_file = -1;
    good = true;
  }

(* A phase: [n] requests, request [i] for file [files.(i)] of kind
   [kinds.(i)], due at [t0 + i * interval].  Results land in [lat]
   (seconds from due to verified completion; nan on failure) and
   [late] (seconds from due until the loop noticed it was due). *)
type phase = {
  n : int;
  files : int array;
  kinds : int array;
  interval : float;
  depth : int;  (** most outstanding requests per keep-alive connection *)
  collect_etags : bool;
  lat : float array;
  late : float array;
  mutable completed : int;
  mutable failed : int;
  mutable backlog_max : int;
  mutable bad_status : int;
  mutable bad_length : int;
  mutable bad_body : int;
  mutable bad_range : int;
  mutable io_errors : int;
  mutable timeouts : int;
}

let new_phase ~files ~kinds ~interval ~depth ~collect_etags =
  let n = Array.length files in
  {
    n;
    files;
    kinds;
    interval;
    depth;
    collect_etags;
    lat = Array.make n Float.nan;
    late = Array.make n 0.;
    completed = 0;
    failed = 0;
    backlog_max = 0;
    bad_status = 0;
    bad_length = 0;
    bad_body = 0;
    bad_range = 0;
    io_errors = 0;
    timeouts = 0;
  }

let lower c = if c >= 'A' && c <= 'Z' then Char.unsafe_chr (Char.code c + 32) else c

(* Does [hdr] hold [s] at [pos] (before [lim])?  With [fold], compare
   case-insensitively ([s] lowercase). *)
let matches ~fold hdr pos lim s =
  let l = String.length s in
  if pos + l > lim then false
  else begin
    let i = ref 0 in
    while
      !i < l
      &&
      let c = Bytes.unsafe_get hdr (pos + !i) in
      (if fold then lower c else c) = String.unsafe_get s !i
    do
      incr i
    done;
    !i = l
  end

(* Does the header line starting at [pos] have name [name] (lowercase)? *)
let name_is hdr pos lim name =
  let l = String.length name in
  pos + l < lim && Bytes.unsafe_get hdr (pos + l) = ':' && matches ~fold:true hdr pos lim name

let skip_spaces hdr pos lim =
  let p = ref pos in
  while !p < lim && Bytes.unsafe_get hdr !p = ' ' do incr p done;
  !p

(* Decimal at [pos], or -1 when there is none; the position after it is
   left in [cursor]. *)
let cursor = ref 0

let parse_int hdr pos lim =
  let p = ref pos and acc = ref 0 in
  while
    !p < lim
    &&
    let c = Bytes.unsafe_get hdr !p in
    c >= '0' && c <= '9'
  do
    acc := (!acc * 10) + Char.code (Bytes.unsafe_get hdr !p) - 48;
    incr p
  done;
  cursor := !p;
  if !p = pos then -1 else !acc

let expect_char hdr c =
  let p = !cursor in
  if p < Bytes.length hdr && Bytes.unsafe_get hdr p = c then (
    cursor := p + 1;
    true)
  else false

let http10 = ref false
let reqs : string array ref = ref [||]

(* Request bytes for (file, kind); kind 1 carries the file's ETag, so
   these are built after the warm-up pass collected them. *)
let build_requests inp =
  let nf = Array.length inp.urls in
  reqs :=
    Array.init (3 * nf) (fun j ->
        let f = j / 3 in
        Bench_inputs.request ~http10:!http10 ~etag:inp.etags.(f) inp.urls.(f) (j mod 3))

(* ---------------------------------------------------------------- *)
(* The engine                                                         *)
(* ---------------------------------------------------------------- *)

let addr = ref (Unix.ADDR_INET (Unix.inet_addr_loopback, 0))

(* Connect [c]; false (after saying why on stderr) when the server
   refuses. *)
let open_conn c =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match Unix.connect fd !addr with
  | () ->
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      Unix.set_nonblock fd;
      c.fd <- fd;
      c.live <- true;
      c.hlen <- 0;
      c.in_body <- false;
      c.eof_wait <- false;
      true
  | exception Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      Printf.eprintf "loadgen: connect failed (%s)\n%!" (Unix.error_message e);
      false

let close_conn c =
  if c.live then begin
    Unix.close c.fd;
    c.live <- false
  end

(* Tear a connection down and fail every request still on it. *)
let abort ph c =
  close_conn c;
  ph.failed <- ph.failed + (c.tail - c.head);
  c.head <- c.tail;
  c.sent <- c.tail;
  c.woff <- 0

(* A broken connection: say why on stderr (rare, so allocation here is
   harmless) and fail what was on it. *)
let io_error ph c why =
  ph.io_errors <- ph.io_errors + 1;
  Printf.eprintf "loadgen: connection dropped (%s) with %d outstanding\n%!" why
    (c.tail - c.head);
  abort ph c

(* [t0]: start of the phase's schedule; [t_read]: when the bytes being
   parsed arrived.  Float arrays, so updating them allocates nothing. *)
let t0 = [| 0. |]
let t_read = [| 0. |]

let complete ph c =
  let id = c.q.(c.head land (ring - 1)) in
  c.head <- c.head + 1;
  c.hlen <- 0;
  c.in_body <- false;
  if c.good then begin
    ph.lat.(id) <- t_read.(0) -. (t0.(0) +. (float_of_int id *. ph.interval));
    ph.completed <- ph.completed + 1
  end
  else ph.failed <- ph.failed + 1;
  if !http10 then c.eof_wait <- true

(* The head response's header block is complete in [c.hdr.(0..hlen)]:
   check it against the request and set up the body. *)
let start_body inp ph c =
  let hdr = c.hdr and lim = c.hlen in
  let id = c.q.(c.head land (ring - 1)) in
  let f = ph.files.(id) and kind = ph.kinds.(id) in
  let size = inp.sizes.(f) in
  let status = if lim > 12 then parse_int hdr 9 lim else -1 in
  let clen = ref (-1) and r0 = ref (-1) and r1 = ref (-1) and rtotal = ref (-1) in
  let pos = ref 0 in
  (* skip the status line *)
  while !pos < lim && Bytes.unsafe_get hdr !pos <> '\n' do incr pos done;
  incr pos;
  while !pos < lim do
    let p = !pos in
    if name_is hdr p lim "content-length" then
      clen := parse_int hdr (skip_spaces hdr (p + 15) lim) lim
    else if name_is hdr p lim "content-range" then begin
      let v = skip_spaces hdr (p + 14) lim in
      if matches ~fold:false hdr v lim "bytes " then begin
        r0 := parse_int hdr (v + 6) lim;
        if expect_char hdr '-' then r1 := parse_int hdr !cursor lim;
        if expect_char hdr '/' then rtotal := parse_int hdr !cursor lim
      end
    end
    else if ph.collect_etags && name_is hdr p lim "etag" then begin
      let v = skip_spaces hdr (p + 5) lim in
      let e = ref v in
      while !e < lim && Bytes.unsafe_get hdr !e <> '\r' do incr e done;
      inp.etags.(f) <- Bytes.sub_string hdr v (!e - v)
    end;
    while !pos < lim && Bytes.unsafe_get hdr !pos <> '\n' do incr pos done;
    incr pos
  done;
  let want_status = match kind with 1 -> 304 | 2 -> 206 | _ -> 200 in
  let want_len = match kind with 1 -> 0 | 2 -> min 1024 size | _ -> size in
  c.good <- true;
  c.body_file <- f;
  c.body_off <- 0;
  if status <> want_status then begin
    ph.bad_status <- ph.bad_status + 1;
    c.good <- false;
    c.body_file <- -1;
    c.body_left <- (if status = 304 then 0 else max 0 !clen)
  end
  else if kind = 1 then c.body_left <- 0
  else begin
    if !clen <> want_len then begin
      ph.bad_length <- ph.bad_length + 1;
      c.good <- false;
      c.body_file <- -1
    end;
    if kind = 2 && (!r0 <> 0 || !r1 <> want_len - 1 || !rtotal <> size) then begin
      ph.bad_range <- ph.bad_range + 1;
      c.good <- false
    end;
    c.body_left <- max 0 !clen
  end;
  c.in_body <- true;
  if c.body_left = 0 then complete ph c

let file_fd inp f =
  match inp.fds.(f) with
  | Some fd -> fd
  | None ->
      let fd = Unix.openfile inp.paths.(f) [ Unix.O_RDONLY ] 0 in
      inp.fds.(f) <- Some fd;
      fd

(* Feed [len] received bytes at [buf.(off)] into the connection's
   framing.  Returns false on a protocol error (the caller aborts). *)
let feed inp ph c buf off len =
  let pos = ref off and lim = off + len and ok = ref true in
  while !ok && !pos < lim do
    if c.eof_wait || c.head = c.sent then begin
      (* bytes after the close-delimited reply, or with nothing asked *)
      ph.bad_length <- ph.bad_length + 1;
      ok := false
    end
    else if not c.in_body then begin
      (* copy header bytes until the blank line *)
      let stop = ref false in
      while (not !stop) && !pos < lim do
        if c.hlen >= hdr_cap then (
          stop := true;
          ok := false)
        else begin
          let ch = Bytes.unsafe_get buf !pos in
          Bytes.unsafe_set c.hdr c.hlen ch;
          c.hlen <- c.hlen + 1;
          incr pos;
          if ch = '\n' && c.hlen >= 4
             && Bytes.unsafe_get c.hdr (c.hlen - 2) = '\r'
             && Bytes.unsafe_get c.hdr (c.hlen - 3) = '\n'
          then stop := true
        end
      done;
      if !ok && c.hlen >= 4 && Bytes.unsafe_get c.hdr (c.hlen - 1) = '\n'
         && Bytes.unsafe_get c.hdr (c.hlen - 3) = '\n'
      then start_body inp ph c
    end
    else begin
      let take = min c.body_left (lim - !pos) in
      if c.body_file >= 0 && c.good
         && not (file_eq (file_fd inp c.body_file) c.body_off buf !pos take)
      then begin
        ph.bad_body <- ph.bad_body + 1;
        c.good <- false
      end;
      c.body_off <- c.body_off + take;
      c.body_left <- c.body_left - take;
      pos := !pos + take;
      if c.body_left = 0 then complete ph c
    end
  done;
  !ok

let rbuf = Bytes.create (1 lsl 18)
let pfds = Array.make 2 Unix.stdin
let pwant = Array.make 2 0
let prev = Array.make 2 0
let pconn = Array.make 2 0

let outstanding c = c.tail - c.head

(* Run one phase to completion (or until [drain] seconds after its
   last due time, when unanswered requests count as timeouts). *)
let run inp ph conns ~drain =
  let nconn = Array.length conns in
  let next = ref 0 and disp = ref 0 in
  let finished = ref false in
  t0.(0) <- now () +. 0.001;
  let last_due = t0.(0) +. (float_of_int (ph.n - 1) *. ph.interval) in
  while not !finished do
    let t = now () in
    (* release due requests *)
    while !next < ph.n && t0.(0) +. (float_of_int !next *. ph.interval) <= t do
      ph.late.(!next) <- t -. (t0.(0) +. (float_of_int !next *. ph.interval));
      incr next
    done;
    (* hand them to connections *)
    let progress = ref true in
    while !disp < !next && !progress do
      progress := false;
      let best = ref (-1) in
      for i = 0 to nconn - 1 do
        let c = conns.(i) in
        if !http10 then (if (not c.live) && !best < 0 then best := i)
        else if outstanding c < ph.depth && outstanding c < ring
                && (!best < 0 || outstanding c < outstanding conns.(!best))
        then best := i
      done;
      if !best >= 0 then begin
        let c = conns.(!best) in
        if c.live || open_conn c then begin
          c.q.(c.tail land (ring - 1)) <- !disp;
          c.tail <- c.tail + 1
        end
        else begin
          ph.io_errors <- ph.io_errors + 1;
          ph.failed <- ph.failed + 1
        end;
        incr disp;
        progress := true
      end
    done;
    let inflight = !next - ph.completed - ph.failed in
    if inflight > ph.backlog_max then ph.backlog_max <- inflight;
    (* write what is queued *)
    for i = 0 to nconn - 1 do
      let c = conns.(i) in
      let blocked = ref false in
      while c.live && (not !blocked) && c.sent < c.tail do
        let id = c.q.(c.sent land (ring - 1)) in
        let s = !reqs.((3 * ph.files.(id)) + ph.kinds.(id)) in
        let len = String.length s - c.woff in
        let w = write_nb c.fd s c.woff len in
        if w = len then (
          c.sent <- c.sent + 1;
          c.woff <- 0)
        else if w >= 0 then (
          c.woff <- c.woff + w;
          blocked := true)
        else if w = -1 then blocked := true
        else io_error ph c "write failed"
      done
    done;
    (* wait: until the next due time, at most 0.5 ms *)
    let np = ref 0 in
    for i = 0 to nconn - 1 do
      let c = conns.(i) in
      if c.live then begin
        pfds.(!np) <- c.fd;
        pwant.(!np) <- (if c.sent < c.tail then 1 else 0);
        pconn.(!np) <- i;
        incr np
      end
    done;
    let timeout =
      if !next < ph.n then t0.(0) +. (float_of_int !next *. ph.interval) -. now ()
      else 0.0005
    in
    let timeout = if timeout > 0.0005 then 0.0005 else timeout in
    let ready = poll pfds pwant prev !np timeout in
    if ready > 0 then
      for j = 0 to !np - 1 do
        if prev.(j) land 1 <> 0 then begin
          let c = conns.(pconn.(j)) in
          let more = ref true in
          while !more && c.live do
            let r = read_nb c.fd rbuf 0 (Bytes.length rbuf) in
            if r > 0 then begin
              t_read.(0) <- now ();
              if not (feed inp ph c rbuf 0 r) then io_error ph c "bad framing";
              if r < Bytes.length rbuf then more := false
            end
            else if r = 0 then begin
              (* peer closed: normal end of an HTTP/1.0 exchange *)
              if c.eof_wait && c.head = c.tail then close_conn c
              else io_error ph c "closed by server"
            end
            else if r = -1 then more := false
            else io_error ph c "read failed"
          done
        end
      done;
    let t = now () in
    if !next >= ph.n && ph.completed + ph.failed >= ph.n then finished := true
    else if t > last_due +. drain then begin
      Array.iter
        (fun c ->
          let before = ph.failed in
          abort ph c;
          ph.timeouts <- ph.timeouts + ph.failed - before)
        conns;
      (* requests never handed out (no free slot before the deadline) *)
      ph.timeouts <- ph.timeouts + (ph.n - !disp);
      ph.failed <- ph.failed + (ph.n - !disp);
      finished := true
    end
  done;
  if !http10 then Array.iter close_conn conns

(* ---------------------------------------------------------------- *)
(* Reporting                                                          *)
(* ---------------------------------------------------------------- *)

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else sorted.(min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1 |> max 0))

let sorted_ok a lo hi =
  let l = ref [] in
  for i = hi - 1 downto lo do
    if not (Float.is_nan a.(i)) then l := a.(i) :: !l
  done;
  let s = Array.of_list !l in
  Array.sort compare s;
  s

let median l =
  let s = Array.of_list l in
  Array.sort compare s;
  let n = Array.length s in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let report ~rate ph ~alloc_words =
  let all = sorted_ok ph.lat 0 ph.n in
  let per_window = max 1 (int_of_float (Float.round rate)) in
  let windows = ph.n / per_window in
  let w50 = ref [] and w99 = ref [] in
  for w = 0 to windows - 1 do
    let s = sorted_ok ph.lat (w * per_window) ((w + 1) * per_window) in
    if Array.length s > 0 then begin
      w50 := quantile s 0.5 :: !w50;
      w99 := quantile s 0.99 :: !w99
    end
  done;
  let late = Array.copy ph.late in
  Array.sort compare late;
  let ms x = 1000. *. x in
  Printf.printf
    "{\"attempted\": %d, \"completed\": %d, \"failed\": %d, \
     \"bad_status\": %d, \"bad_length\": %d, \"bad_body\": %d, \"bad_range\": %d, \
     \"io_errors\": %d, \"timeouts\": %d, \"windows\": %d, \
     \"lat_p50_ms\": %.6f, \"lat_p99_ms\": %.6f, \"lat_p50_all_ms\": %.6f, \
     \"lat_p99_all_ms\": %.6f, \"lat_max_ms\": %.6f, \"samples_beyond_p99\": %d, \
     \"late_p99_ms\": %.6f, \"late_max_ms\": %.6f, \"backlog_max\": %d, \
     \"loop_alloc_words\": %.0f}\n%!"
    ph.n ph.completed ph.failed ph.bad_status ph.bad_length ph.bad_body
    ph.bad_range ph.io_errors ph.timeouts windows
    (ms (median !w50)) (ms (median !w99)) (ms (quantile all 0.5))
    (ms (quantile all 0.99))
    (ms (if Array.length all > 0 then all.(Array.length all - 1) else Float.nan))
    (Array.length all - int_of_float (Float.ceil (0.99 *. float_of_int (Array.length all))))
    (ms (quantile late 0.99))
    (ms (late.(Array.length late - 1)))
    ph.backlog_max alloc_words

let () =
  let dir = ref "" and rate = ref 1000. and seconds = ref 1. in
  Arg.parse
    [
      ("--inputs", Arg.Set_string dir, "DIR workload inputs (mkinput output)");
      ("--rate", Arg.Set_float rate, "R offered requests per second");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--http10", Arg.Set http10, " one HTTP/1.0 connection per request");
    ]
    (fun a -> raise (Arg.Bad a))
    "loadgen.exe --inputs DIR --rate R --seconds S [--http10]";
  tight_timers ();
  let inp = load !dir in
  let n = int_of_float (Float.round (!rate *. !seconds)) in
  if n > Array.length inp.plan_file then failwith "plan shorter than rate * seconds";
  print_endline "ready";
  (* one set-up per server: the warm-up pass, then commands until
     "again" (the next server) or the end *)
  let rec setup () =
    let port = Scanf.sscanf (input_line stdin) "port %d" Fun.id in
    addr := Unix.ADDR_INET (Unix.inet_addr_loopback, port);
    let conns = [| new_conn (); new_conn () |] in
    (* warm-up: every hot file once, plain GET, collecting ETags *)
    build_requests inp;
    let warm =
      new_phase ~files:inp.hot ~kinds:(Array.make (Array.length inp.hot) 0) ~interval:0.
        ~depth:32 ~collect_etags:true
    in
    run inp warm conns ~drain:30.;
    Printf.printf "warm %.6f %d\n%!" (now ()) warm.failed;
    let rec command () =
      match input_line stdin with
      | "go" ->
          build_requests inp;
          let ph =
            new_phase ~files:(Array.sub inp.plan_file 0 n)
              ~kinds:(Array.sub inp.plan_kind 0 n) ~interval:(1. /. !rate)
              ~depth:pipeline_depth ~collect_etags:false
          in
          Gc.compact ();
          let w0 = Gc.minor_words () in
          run inp ph conns ~drain:5.;
          let alloc_words = Gc.minor_words () -. w0 in
          report ~rate:!rate ph ~alloc_words;
          command ()
      | "again" ->
          Array.iter close_conn conns;
          setup ()
      | _ | (exception End_of_file) -> Array.iter close_conn conns
    in
    command ()
  in
  setup ()
