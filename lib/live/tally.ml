open Bigarray

type slab = (int64, int64_elt, c_layout) Array1.t

type t = {
  slab : slab;
  rows : int;
  mutable row : int;  (* offset of this writer's row *)
}

type field = int

(* One row: counters and gauges, then the latency histogram — count,
   sum/min/max as IEEE-754 bits, and the bucket counts. *)
let requests = 0
let connections = 1
let errors = 2

let status_class i =
  if i < 0 || i > 3 then invalid_arg "Tally.status_class";
  3 + i

let writev_calls = 7
let write_calls = 8
let bytes_copied = 9
let bytes_sent = 10
let accept_shed = 11
let active = 12
let mapped = 13
let cache_hits = 14
let cache_misses = 15
let cache_evictions = 16
let cache_entries = 17
let cache_bytes = 18
let cache_admitted = 19
let cache_rejected = 20
let h_count = 21
let h_sum = 22
let h_min = 23
let h_max = 24
let h_buckets = 25
let n_buckets = 256

(* Rows are padded to whole 64-byte lines, so two writers never share
   one. *)
let width = (h_buckets + n_buckets + 7) / 8 * 8

let map_shared n =
  let path = Filename.temp_file "flash-shared" ".slab" in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o600 in
  Sys.remove path;
  (* Growing the empty file to the mapping's size zero-fills it. *)
  let a = Unix.map_file fd int64 c_layout true [| n |] in
  Unix.close fd;
  array1_of_genarray a

let create ?(shared = false) ~rows () =
  let rows = max 1 rows in
  let n = rows * width in
  let slab =
    if shared then map_shared n else Array1.init int64 c_layout n (fun _ -> 0L)
  in
  { slab; rows; row = 0 }

let claim t i =
  if i < 0 || i >= t.rows then invalid_arg "Tally.claim";
  t.row <- i * width

let[@inline] get t i = Int64.to_int (Array1.unsafe_get t.slab i)
let[@inline] put t i v = Array1.unsafe_set t.slab i (Int64.of_int v)
let[@inline] getf t i = Int64.float_of_bits (Array1.unsafe_get t.slab i)
let[@inline] putf t i v = Array1.unsafe_set t.slab i (Int64.bits_of_float v)
let add t f n = put t (t.row + f) (get t (t.row + f) + n)
let set t f v = put t (t.row + f) v

let sum t f =
  let acc = ref 0 in
  for r = 0 to t.rows - 1 do
    acc := !acc + get t ((r * width) + f)
  done;
  !acc

(* The default ladder of [Obs.Histogram], whose bucket index this
   repeats, clamped to the top bucket (the tally properties in
   test/test_obs.ml hold the two together). *)
let ladder = Obs.Histogram.create ()
let lo = Obs.Histogram.lo ladder
let log_base = Float.log (Obs.Histogram.base ladder)

let bucket x =
  if x <= lo then 0
  else
    Int.min (n_buckets - 1)
      (1 + int_of_float (Float.log (x /. lo) /. log_base))

(* The bucket is written last and [latency] reads buckets first, so a
   reader that sees an observation's bucket also sees its count and
   extrema. *)
let record_latency t x =
  if Float.is_finite x then begin
    let r = t.row in
    if get t (r + h_count) = 0 then begin
      putf t (r + h_min) x;
      putf t (r + h_max) x
    end
    else begin
      if x < getf t (r + h_min) then putf t (r + h_min) x;
      if x > getf t (r + h_max) then putf t (r + h_max) x
    end;
    putf t (r + h_sum) (getf t (r + h_sum) +. x);
    put t (r + h_count) (get t (r + h_count) + 1);
    let b = r + h_buckets + bucket x in
    put t b (get t b + 1)
  end

let latency t =
  let counts = Array.make n_buckets 0 in
  for r = 0 to t.rows - 1 do
    let b = (r * width) + h_buckets in
    for i = 0 to n_buckets - 1 do
      counts.(i) <- counts.(i) + get t (b + i)
    done
  done;
  let total = ref 0. and lo_v = ref infinity and hi_v = ref neg_infinity in
  for r = 0 to t.rows - 1 do
    let o = r * width in
    if get t (o + h_count) > 0 then begin
      total := !total +. getf t (o + h_sum);
      lo_v := Float.min !lo_v (getf t (o + h_min));
      hi_v := Float.max !hi_v (getf t (o + h_max))
    end
  done;
  Obs.Histogram.of_counts counts ~sum:!total ~min:!lo_v ~max:!hi_v
