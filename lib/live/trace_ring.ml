open Bigarray

type t = {
  slab : (int64, int64_elt, c_layout) Array1.t;
  rows : int;
  cap : int;
  mutable row : int;  (* this writer's row *)
}

(* A row: one line holding its record count, then [cap] 1 KB slots of
   leading stamp, record (zero-padded to whole words), trailing stamp.
   Record [k] of a row lives in slot [k mod cap] under stamp [k + 1], so
   a zeroed slot never passes for a record. *)
let header = 8
let slot_words = 128
let payload_bytes = (slot_words - 2) * 8
let width cap = header + (cap * slot_words)

let create ~rows ~capacity =
  if rows < 1 || capacity < 1 then invalid_arg "Trace_ring.create";
  let slab = Tally.map_shared (rows * width capacity) in
  { slab; rows; cap = capacity; row = 0 }

let claim t i =
  if i < 0 || i >= t.rows then invalid_arg "Trace_ring.claim";
  t.row <- i

let get t i = Int64.to_int t.slab.{i}
let put t i v = t.slab.{i} <- Int64.of_int v
let count t r = get t (r * width t.cap)
let slot t r k = (r * width t.cap) + header + ((k mod t.cap) * slot_words)

(* Leading spans only, when the whole record would overflow a slot.  A
   record with no spans always fits: its label is cut to 255 bytes. *)
let rec encode (d : Obs.Trace.trace_data) =
  let s = Obs.Trace.to_binary d in
  let len = String.length s in
  match List.rev d.Obs.Trace.spans with
  | _ :: kept when len > payload_bytes ->
      encode
        { d with Obs.Trace.spans = List.rev kept; truncated = d.truncated + 1 }
  | _ -> s ^ String.make ((8 - (len mod 8)) mod 8) '\000'

let push t data =
  let record = encode data in
  let k = count t t.row in
  let s = slot t t.row k in
  put t s (k + 1);
  for i = 0 to (String.length record / 8) - 1 do
    t.slab.{s + 1 + i} <- String.get_int64_le record (8 * i)
  done;
  put t (s + slot_words - 1) (k + 1);
  put t (t.row * width t.cap) (k + 1)

(* Trailing stamp first, leading stamp last: a rewrite that began before
   the copy ended has already changed the leading one. *)
let read t r k =
  let s = slot t r k in
  let trailing = get t (s + slot_words - 1) in
  let b = Bytes.create payload_bytes in
  for i = 0 to (payload_bytes / 8) - 1 do
    Bytes.set_int64_le b (8 * i) t.slab.{s + 1 + i}
  done;
  if trailing <> k + 1 || get t s <> k + 1 then None
  else
    Obs.Trace.of_binary (Bytes.unsafe_to_string b) ~pos:0
    |> Option.map (fun (d, _) -> { d with Obs.Trace.id = (k * t.rows) + r })

let snapshot t =
  List.init t.rows (fun r ->
      let n = count t r in
      let first = max 0 (n - t.cap) in
      List.filter_map (read t r) (List.init (n - first) (( + ) first)))
  |> List.concat
  |> List.stable_sort (fun (a : Obs.Trace.trace_data) b ->
         Float.compare a.t_end b.t_end)

let sum t f =
  List.fold_left (fun acc r -> acc + f (count t r)) 0 (List.init t.rows Fun.id)

let completed t = sum t Fun.id
let evicted t = sum t (fun n -> max 0 (n - t.cap))
let capacity t = t.rows * t.cap

let tear t ~row =
  let n = count t row in
  if n > 0 then put t (slot t row (n - 1)) 0
