(* The lib/cache subsystem: model-based policy checks against naive
   references, admission gates, budget sharing, and deterministic
   hit-rate fixtures separating the policies. *)

module Policy = Flash_cache.Policy
module Store = Flash_cache.Store
module Budget = Flash_cache.Budget

(* ------------------------------------------------------------------ *)
(* Model-based: every policy vs a naive reference                      *)
(* ------------------------------------------------------------------ *)

(* Naive references recompute victims by scanning all resident keys —
   no heaps, no linked lists — so agreement on arbitrary operation
   sequences exercises the real implementations' incremental machinery
   (stale heap records, segment demotion) against obviously-correct
   arithmetic. *)
type model = {
  m_insert : int -> int -> unit;  (* key, weight *)
  m_access : int -> unit;
  m_remove : int -> unit;
  m_victim : unit -> int option;
}

let naive_lru () =
  (* MRU-first key list. *)
  let order = ref [] in
  {
    m_insert = (fun k _w -> order := k :: !order);
    m_access =
      (fun k -> order := k :: List.filter (fun x -> x <> k) !order);
    m_remove = (fun k -> order := List.filter (fun x -> x <> k) !order);
    m_victim =
      (fun () ->
        match List.rev !order with [] -> None | last :: _ -> Some last);
  }

let naive_slru ~capacity () =
  let probation = ref [] and protected_ = ref [] in
  let weights = Hashtbl.create 16 in
  let pcap = capacity / 5 * 4 in
  let weight_of k = Option.value ~default:0 (Hashtbl.find_opt weights k) in
  let pweight () = List.fold_left (fun a k -> a + weight_of k) 0 !protected_ in
  let drop l k = List.filter (fun x -> x <> k) l in
  let rec demote () =
    if pweight () > pcap then
      match List.rev !protected_ with
      | [] -> ()
      | last :: _ ->
          protected_ := drop !protected_ last;
          probation := last :: !probation;
          demote ()
  in
  {
    m_insert =
      (fun k w ->
        Hashtbl.replace weights k w;
        probation := k :: !probation);
    m_access =
      (fun k ->
        if List.mem k !probation then begin
          probation := drop !probation k;
          protected_ := k :: !protected_;
          demote ()
        end
        else protected_ := k :: drop !protected_ k);
    m_remove =
      (fun k ->
        probation := drop !probation k;
        protected_ := drop !protected_ k;
        Hashtbl.remove weights k);
    m_victim =
      (fun () ->
        match List.rev !probation with
        | last :: _ -> Some last
        | [] -> (
            match List.rev !protected_ with
            | last :: _ -> Some last
            | [] -> None));
  }

(* Decayed-LFU reference: bump [j] (1-indexed, global) contributes
   [decay^-j], identical to the implementation's growing multiplier;
   victims minimise (score, last-bump seq). *)
let naive_lfu () =
  let scores = Hashtbl.create 16 and seqs = Hashtbl.create 16 in
  let n = ref 0 in
  let mult = ref 1.0 in
  let bump k =
    incr n;
    mult := !mult /. 0.999;
    Hashtbl.replace scores k
      (Option.value ~default:0.0 (Hashtbl.find_opt scores k) +. !mult);
    Hashtbl.replace seqs k !n
  in
  let victim () =
    Hashtbl.fold
      (fun k s best ->
        let q = Hashtbl.find seqs k in
        match best with
        | None -> Some (k, s, q)
        | Some (_, bs, bq) when s < bs || (s = bs && q < bq) -> Some (k, s, q)
        | Some _ -> best)
      scores None
    |> Option.map (fun (k, _, _) -> k)
  in
  {
    m_insert = (fun k _w -> bump k);
    m_access = bump;
    m_remove =
      (fun k ->
        Hashtbl.remove scores k;
        Hashtbl.remove seqs k);
    m_victim = victim;
  }

let naive_gdsf () =
  let pris = Hashtbl.create 16
  and seqs = Hashtbl.create 16
  and freqs = Hashtbl.create 16
  and sizes = Hashtbl.create 16 in
  let aging = ref 0.0 in
  let n = ref 0 in
  let rescore k =
    incr n;
    let f = Option.value ~default:0 (Hashtbl.find_opt freqs k) + 1 in
    Hashtbl.replace freqs k f;
    let size = max 1 (Option.value ~default:1 (Hashtbl.find_opt sizes k)) in
    Hashtbl.replace pris k (!aging +. (float_of_int f /. float_of_int size));
    Hashtbl.replace seqs k !n
  in
  let victim () =
    Hashtbl.fold
      (fun k p best ->
        let q = Hashtbl.find seqs k in
        match best with
        | None -> Some (k, p, q)
        | Some (_, bp, bq) when p < bp || (p = bp && q < bq) -> Some (k, p, q)
        | Some _ -> best)
      pris None
    |> Option.map (fun (k, p, _) ->
           aging := p;
           k)
  in
  {
    m_insert =
      (fun k w ->
        Hashtbl.replace sizes k w;
        Hashtbl.remove freqs k;
        rescore k);
    m_access = rescore;
    m_remove =
      (fun k ->
        Hashtbl.remove pris k;
        Hashtbl.remove seqs k;
        Hashtbl.remove freqs k;
        Hashtbl.remove sizes k);
    m_victim = victim;
  }

let naive_of kind ~capacity =
  match kind with
  | Policy.Lru -> naive_lru ()
  | Policy.Slru -> naive_slru ~capacity ()
  | Policy.Lfu -> naive_lfu ()
  | Policy.Gdsf -> naive_gdsf ()

type op = Touch of int * int  (* key, weight: insert if fresh else access *)
        | Evict

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun k w -> Touch (k, w)) (int_range 0 11) (int_range 1 9));
        (2, return Evict);
      ])

let op_print = function
  | Touch (k, w) -> Printf.sprintf "Touch(%d,w%d)" k w
  | Evict -> "Evict"

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map op_print ops))
    QCheck.Gen.(list_size (int_range 0 80) op_gen)

let policy_matches_model kind capacity ops =
  let impl = Policy.make kind ~capacity () in
  let model = naive_of kind ~capacity in
  let resident = Hashtbl.create 16 in
  List.iter
    (fun op ->
      match op with
      | Touch (k, w) ->
          if Hashtbl.mem resident k then begin
            impl.Policy.access k;
            model.m_access k
          end
          else begin
            Hashtbl.replace resident k ();
            impl.Policy.insert k ~weight:w;
            model.m_insert k w
          end
      | Evict -> (
          let a = impl.Policy.victim () in
          let b = model.m_victim () in
          if a <> b then
            failwith
              (Printf.sprintf "victim disagreement: impl %s, model %s"
                 (match a with Some k -> string_of_int k | None -> "none")
                 (match b with Some k -> string_of_int k | None -> "none"));
          match a with
          | Some k ->
              impl.Policy.remove k;
              model.m_remove k;
              Hashtbl.remove resident k
          | None -> ()))
    ops;
  true

let prop_policy kind =
  Helpers.qcheck_case ~count:300
    ~name:(Printf.sprintf "%s matches naive reference" (Policy.name kind))
    ops_arb
    (fun ops -> policy_matches_model kind 20 ops)

(* ------------------------------------------------------------------ *)
(* Store invariants under admit/reject                                 *)
(* ------------------------------------------------------------------ *)

type sop = Sadd of int * int | Sfind of int | Sremove of int

let sop_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun k w -> Sadd (k, w)) (int_range 0 9) (int_range 1 8));
        (3, map (fun k -> Sfind k) (int_range 0 9));
        (1, map (fun k -> Sremove k) (int_range 0 9));
      ])

let sop_print = function
  | Sadd (k, w) -> Printf.sprintf "Add(%d,w%d)" k w
  | Sfind k -> Printf.sprintf "Find(%d)" k
  | Sremove k -> Printf.sprintf "Remove(%d)" k

let sops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map sop_print ops))
    QCheck.Gen.(list_size (int_range 0 80) sop_gen)

(* Weight conservation: the store's weight equals the sum of resident
   weights after every operation, whatever the policy and admission
   gate decide, and admitted + rejected counts every fresh insertion
   attempt. *)
let store_conserves_weight (kind, ops) =
  let store =
    Store.create ~policy:kind ~admission:(Policy.Admit_min_size 3)
      ~capacity:20 ()
  in
  let weights = Hashtbl.create 16 in
  let attempts = ref 0 in
  List.iter
    (fun op ->
      (match op with
      | Sadd (k, w) ->
          let fresh = not (Store.mem store k) in
          if fresh then incr attempts;
          if Store.add store k w ~weight:w then Hashtbl.replace weights k w
      | Sfind k -> ignore (Store.find store k)
      | Sremove k -> ignore (Store.remove store k));
      (* Resync the model with evictions the store performed. *)
      Hashtbl.iter
        (fun k _ -> if not (Store.mem store k) then Hashtbl.remove weights k)
        (Hashtbl.copy weights);
      let expected = Hashtbl.fold (fun _ w acc -> acc + w) weights 0 in
      if Store.weight store <> expected then
        failwith
          (Printf.sprintf "weight %d, resident sum %d" (Store.weight store)
             expected);
      if Store.weight store > Store.capacity store && Store.length store > 1
      then failwith "over capacity with multiple entries")
    ops;
  let s = Store.stats store in
  s.Store.admitted + s.Store.rejected = !attempts

let prop_store_weights =
  Helpers.qcheck_case ~count:300 ~name:"store conserves weight, counts admission"
    (QCheck.make
       ~print:(fun (kind, ops) ->
         Policy.name kind ^ ": "
         ^ String.concat "; " (List.map sop_print ops))
       QCheck.Gen.(
         pair
           (oneofl [ Policy.Lru; Policy.Slru; Policy.Lfu; Policy.Gdsf ])
           (list_size (int_range 0 80) sop_gen)))
    store_conserves_weight

(* ------------------------------------------------------------------ *)
(* Weighted LRU at the store level                                     *)
(* ------------------------------------------------------------------ *)

(* The seed's weighted LRU contract, as every cache now gets it: a
   [Store] under [Policy.Lru].  These reach what the policy-level model
   test cannot — the store's promotion on hits and replacements, weight
   bookkeeping, removal and the evict hook. *)
let lru_store ?on_evict capacity =
  Store.create ~policy:Policy.Lru ?on_evict ~capacity ()

(* [Admit_always] never rejects. *)
let put s k v ~weight = ignore (Store.add s k v ~weight)

(* Resident keys from most to least recently used: hits and inserts
   stamp the store's logical clock, so the stamps order recency. *)
let mru_order s =
  Store.fold_keys s ~init:[] ~f:(fun acc k ks -> (ks.Store.ks_last, k) :: acc)
  |> List.sort (fun (a, _) (b, _) -> compare b a)
  |> List.map snd

let test_lru_basic () =
  let s = lru_store 3 in
  put s "a" 1 ~weight:1;
  put s "b" 2 ~weight:1;
  Alcotest.(check (option int)) "find a" (Some 1) (Store.find s "a");
  Alcotest.(check (option int)) "find missing" None (Store.find s "zz");
  Alcotest.(check int) "length" 2 (Store.length s);
  Alcotest.(check int) "weight" 2 (Store.weight s)

let test_lru_eviction_order () =
  let evicted = ref [] in
  let s = lru_store ~on_evict:(fun k _ -> evicted := k :: !evicted) 2 in
  put s "a" 1 ~weight:1;
  put s "b" 2 ~weight:1;
  put s "c" 3 ~weight:1;
  Alcotest.(check (list string)) "a evicted first" [ "a" ] !evicted;
  (* Touch b, then insert d: c is now least recent. *)
  ignore (Store.find s "b");
  put s "d" 4 ~weight:1;
  Alcotest.(check (list string)) "c evicted second" [ "c"; "a" ] !evicted;
  Alcotest.(check bool) "b survives" true (Store.mem s "b")

let test_lru_peek_does_not_promote () =
  let s = lru_store 2 in
  put s "a" 1 ~weight:1;
  put s "b" 2 ~weight:1;
  ignore (Store.peek s "a");
  put s "c" 3 ~weight:1;
  Alcotest.(check bool) "a evicted despite peek" false (Store.mem s "a")

let test_lru_weighted () =
  let s = lru_store 100 in
  put s "big" 0 ~weight:60;
  put s "mid" 1 ~weight:30;
  put s "more" 2 ~weight:30;
  (* 60+30+30 > 100: "big" (LRU) must have been evicted. *)
  Alcotest.(check bool) "big evicted" false (Store.mem s "big");
  Alcotest.(check int) "weight within capacity" 60 (Store.weight s)

let test_lru_oversized_single_entry () =
  let s = lru_store 10 in
  put s "huge" 0 ~weight:100;
  Alcotest.(check bool) "admitted alone" true (Store.mem s "huge");
  put s "small" 1 ~weight:1;
  Alcotest.(check bool) "huge evicted when company arrives" false
    (Store.mem s "huge")

let test_lru_replace_reweighs () =
  let s = lru_store 10 in
  put s "k" 1 ~weight:4;
  put s "k" 2 ~weight:6;
  Alcotest.(check int) "weight replaced" 6 (Store.weight s);
  Alcotest.(check (option int)) "value replaced" (Some 2) (Store.find s "k");
  Alcotest.(check int) "single entry" 1 (Store.length s)

let test_lru_remove () =
  let evicted = ref 0 in
  let s = lru_store ~on_evict:(fun _ _ -> incr evicted) 5 in
  put s "a" 1 ~weight:2;
  Alcotest.(check (option int)) "removed value" (Some 1) (Store.remove s "a");
  Alcotest.(check int) "no on_evict for remove" 0 !evicted;
  Alcotest.(check int) "weight zero" 0 (Store.weight s);
  Alcotest.(check (option int)) "remove missing" None (Store.remove s "a")

(* ~evict:true routes explicit removal through the on_evict hook, so
   callers whose hook releases a resource (gauges, unmaps) need not
   duplicate the cleanup by hand. *)
let test_lru_remove_evict_runs_hook () =
  let gauge = ref 0 in
  let s = lru_store ~on_evict:(fun _ v -> gauge := !gauge - v) 10 in
  put s "a" 7 ~weight:1;
  gauge := 7;
  Alcotest.(check (option int)) "removed value" (Some 7)
    (Store.remove ~evict:true s "a");
  Alcotest.(check int) "hook released the resource" 0 !gauge;
  Alcotest.(check (option int)) "evict remove on missing key" None
    (Store.remove ~evict:true s "a");
  Alcotest.(check int) "no hook for missing key" 0 !gauge

let test_lru_set_capacity_shrinks () =
  let s = lru_store 10 in
  for i = 1 to 10 do
    put s i i ~weight:1
  done;
  Store.set_capacity s 3;
  Alcotest.(check int) "shrunk" 3 (Store.length s);
  Alcotest.(check bool) "most recent kept" true (Store.mem s 10);
  Alcotest.(check bool) "oldest gone" false (Store.mem s 1)

let test_lru_order () =
  let evicted = ref [] in
  let s = lru_store ~on_evict:(fun k v -> evicted := (k, v) :: !evicted) 5 in
  List.iter (fun k -> put s k k ~weight:1) [ 1; 2; 3 ];
  ignore (Store.find s 1);
  Alcotest.(check (list int)) "MRU to LRU" [ 1; 3; 2 ] (mru_order s);
  Alcotest.(check bool) "a victim to shed" true (Store.shed s);
  Alcotest.(check (list (pair int int))) "lru entry is the victim" [ (2, 2) ]
    !evicted

let test_lru_clear () =
  let s = lru_store 5 in
  put s "a" 1 ~weight:1;
  Store.clear s;
  Alcotest.(check int) "empty" 0 (Store.length s);
  put s "b" 2 ~weight:1;
  Alcotest.(check bool) "usable after clear" true (Store.mem s "b")

let test_lru_invalid () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Store.create: capacity <= 0") (fun () ->
      ignore (lru_store 0));
  let s = lru_store 1 in
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Store.add: negative weight") (fun () ->
      put s "x" 1 ~weight:(-1))

let prop_lru_capacity_respected =
  Helpers.qcheck_case ~name:"weight never exceeds capacity (multi-entry)"
    QCheck.(pair (int_range 1 50) (list (pair (int_range 0 9) (int_range 0 10))))
    (fun (cap, adds) ->
      let s = lru_store cap in
      List.iter (fun (k, w) -> put s k k ~weight:w) adds;
      Store.weight s <= cap || Store.length s = 1)

let prop_lru_most_recent_present =
  Helpers.qcheck_case ~name:"most recently added key is always present"
    QCheck.(list (pair (int_range 0 9) (int_range 0 5)))
    (fun adds ->
      let s = lru_store 20 in
      List.for_all
        (fun (k, w) ->
          put s k k ~weight:w;
          Store.mem s k)
        adds)

(* Reference weighted LRU: an association list in MRU-to-LRU order. *)
module Weighted_lru = struct
  type t = { cap : int; mutable entries : (int * int) list (* key, weight *) }

  let create cap = { cap; entries = [] }
  let weight t = List.fold_left (fun acc (_, w) -> acc + w) 0 t.entries

  let add t k w =
    t.entries <- (k, w) :: List.remove_assoc k t.entries;
    (* Evict from the LRU end while over capacity with > 1 entry. *)
    let rec drop_last = function
      | [] | [ _ ] -> []
      | x :: rest -> x :: drop_last rest
    in
    while weight t > t.cap && List.length t.entries > 1 do
      t.entries <- drop_last t.entries
    done

  let find t k =
    match List.assoc_opt k t.entries with
    | Some w ->
        t.entries <- (k, w) :: List.remove_assoc k t.entries;
        true
    | None -> false

  let remove t k =
    let present = List.mem_assoc k t.entries in
    t.entries <- List.remove_assoc k t.entries;
    present
end

(* Same resident keys in the same recency order, same total weight. *)
let store_matches_weighted_lru cap ops =
  let s = lru_store cap in
  let r = Weighted_lru.create cap in
  List.iter
    (fun op ->
      match op with
      | Sadd (k, w) ->
          put s k k ~weight:w;
          Weighted_lru.add r k w
      | Sfind k ->
          if (Store.find s k <> None) <> Weighted_lru.find r k then
            failwith (Printf.sprintf "find disagreement on %d" k)
      | Sremove k ->
          if (Store.remove s k <> None) <> Weighted_lru.remove r k then
            failwith (Printf.sprintf "remove disagreement on %d" k))
    ops;
  mru_order s = List.map fst r.Weighted_lru.entries
  && Store.weight s = Weighted_lru.weight r

let prop_lru_model cap =
  Helpers.qcheck_case ~count:300
    ~name:(Printf.sprintf "LRU matches reference model (cap %d)" cap)
    sops_arb
    (store_matches_weighted_lru cap)

(* ------------------------------------------------------------------ *)
(* Deterministic hit-rate fixtures                                     *)
(* ------------------------------------------------------------------ *)

(* Replay (path, size) requests; returns (hits, byte_hits, total_bytes). *)
let replay policy ~capacity reqs =
  let store = Store.create ~policy ~capacity () in
  let hits = ref 0 and byte_hits = ref 0 and total = ref 0 in
  List.iter
    (fun (key, size) ->
      total := !total + size;
      match Store.find store key with
      | Some () ->
          incr hits;
          byte_hits := !byte_hits + size
      | None -> ignore (Store.add store key () ~weight:size))
    reqs;
  (!hits, !byte_hits, !total)

(* Hot set + one-touch scan stream.  LRU churns: every scan burst pushes
   hot entries out; LFU's frequency ranking keeps the hot set resident. *)
let scan_fixture =
  let hot = List.init 8 (fun i -> (i, 1)) in
  let warmup = List.concat (List.init 5 (fun _ -> hot)) in
  let rounds =
    List.concat
      (List.init 30 (fun r ->
           let scans = List.init 4 (fun j -> (100 + (4 * r) + j, 1)) in
           scans @ hot))
  in
  warmup @ rounds

let test_lfu_beats_lru_on_scans () =
  let lru_hits, _, _ = replay Policy.Lru ~capacity:10 scan_fixture in
  let lfu_hits, _, _ = replay Policy.Lfu ~capacity:10 scan_fixture in
  Alcotest.(check bool)
    (Printf.sprintf "lfu hits (%d) > lru hits (%d)" lfu_hits lru_hits)
    true (lfu_hits > lru_hits);
  (* And the scan stream really does hurt LRU. *)
  Alcotest.(check bool) "scan stream defeats plain LRU" true
    (lru_hits < 30 * 8)

(* Heavy-tailed byte-hit fixture: 50 hot 1 KB files plus a 60 KB
   one-touch scan file per round, 100 KB capacity.  LRU lets each big
   file push out hot entries; GDSF gives the big one-touch file the
   lowest priority (freq 1 / size 60000) and evicts it first, keeping
   the hot set — higher byte hit rate on fewer resident bytes. *)
let heavy_tail_fixture =
  let hot = List.init 50 (fun i -> (i, 1000)) in
  let warmup = List.concat (List.init 2 (fun _ -> hot)) in
  let rounds =
    List.concat (List.init 40 (fun r -> hot @ [ (1000 + r, 60_000) ]))
  in
  warmup @ rounds

let test_gdsf_beats_lru_on_byte_hit_rate () =
  let _, lru_bytes, total = replay Policy.Lru ~capacity:100_000 heavy_tail_fixture in
  let _, gdsf_bytes, _ = replay Policy.Gdsf ~capacity:100_000 heavy_tail_fixture in
  let rate b = float_of_int b /. float_of_int total in
  Alcotest.(check bool)
    (Printf.sprintf "gdsf byte-hit %.3f > lru byte-hit %.3f" (rate gdsf_bytes)
       (rate lru_bytes))
    true
    (gdsf_bytes > lru_bytes)

(* SLRU protects the hot set from the same scan stream. *)
let test_slru_beats_lru_on_scans () =
  let lru_hits, _, _ = replay Policy.Lru ~capacity:10 scan_fixture in
  let slru_hits, _, _ = replay Policy.Slru ~capacity:10 scan_fixture in
  Alcotest.(check bool)
    (Printf.sprintf "slru hits (%d) > lru hits (%d)" slru_hits lru_hits)
    true (slru_hits > lru_hits)

(* ------------------------------------------------------------------ *)
(* Admission gates                                                     *)
(* ------------------------------------------------------------------ *)

let test_min_size_admission () =
  let store =
    Store.create ~admission:(Policy.Admit_min_size 10) ~capacity:100 ()
  in
  Alcotest.(check bool) "small rejected" false (Store.add store 1 () ~weight:5);
  Alcotest.(check bool) "large admitted" true (Store.add store 2 () ~weight:10);
  let s = Store.stats store in
  Alcotest.(check int) "rejected count" 1 s.Store.rejected;
  Alcotest.(check int) "admitted count" 1 s.Store.admitted;
  Alcotest.(check int) "only the big entry resident" 10 (Store.weight store)

let test_freq_admission_doorkeeper () =
  (* p = 0: first-timers always rejected; the doorkeeper remembers the
     rejection, so the second attempt admits. *)
  let store = Store.create ~admission:(Policy.Admit_freq 0.0) ~capacity:100 () in
  Alcotest.(check bool) "first attempt rejected" false
    (Store.add store 1 () ~weight:1);
  Alcotest.(check bool) "second attempt admitted" true
    (Store.add store 1 () ~weight:1);
  (* p = 1: everything admitted outright. *)
  let store = Store.create ~admission:(Policy.Admit_freq 1.0) ~capacity:100 () in
  Alcotest.(check bool) "p=1 admits first-timers" true
    (Store.add store 2 () ~weight:1)

let test_replacement_bypasses_admission () =
  let store = Store.create ~admission:(Policy.Admit_freq 0.0) ~capacity:100 () in
  ignore (Store.add store 1 () ~weight:1);
  ignore (Store.add store 1 () ~weight:1);
  (* Resident: replacing re-weighs without consulting the gate. *)
  Alcotest.(check bool) "replacement admitted" true
    (Store.add store 1 () ~weight:7);
  Alcotest.(check int) "re-weighed" 7 (Store.weight store)

(* ------------------------------------------------------------------ *)
(* Budget sharing                                                      *)
(* ------------------------------------------------------------------ *)

let test_budget_sheds_largest () =
  let budget = Budget.create ~bytes:100 in
  let a = Store.create ~budget ~name:"a" ~capacity:1000 () in
  let b = Store.create ~budget ~name:"b" ~capacity:1000 () in
  ignore (Store.add a "x" () ~weight:70);
  Alcotest.(check int) "pool charged" 70 (Budget.used budget);
  (* B's insertion overflows the shared pool; the budget sheds from the
     largest member (A), even though A is under its own capacity — and
     even though it empties A. *)
  ignore (Store.add b "y" () ~weight:60);
  Alcotest.(check bool) "pool back within budget" true
    (Budget.used budget <= 100);
  Alcotest.(check int) "A shed its entry" 0 (Store.weight a);
  Alcotest.(check int) "B kept its entry" 60 (Store.weight b);
  Alcotest.(check int) "shed counts as eviction" 1 (Store.evictions a)

let test_budget_clear_releases () =
  let budget = Budget.create ~bytes:100 in
  let a = Store.create ~budget ~capacity:1000 () in
  ignore (Store.add a 1 () ~weight:40);
  ignore (Store.add a 2 () ~weight:40);
  Store.clear a;
  Alcotest.(check int) "clear releases the pool" 0 (Budget.used budget)

(* ------------------------------------------------------------------ *)
(* Parsing and validation                                              *)
(* ------------------------------------------------------------------ *)

let test_of_string () =
  List.iter
    (fun kind ->
      match Policy.of_string (Policy.name kind) with
      | Ok k -> Alcotest.(check bool) "round-trips" true (k = kind)
      | Error e -> Alcotest.fail e)
    Policy.all;
  let contains msg name =
    let n = String.length name and m = String.length msg in
    let rec go i = i + n <= m && (String.sub msg i n = name || go (i + 1)) in
    go 0
  in
  (match Policy.of_string "bogus" with
  | Ok _ -> Alcotest.fail "accepted bogus policy"
  | Error msg ->
      Alcotest.(check bool) "error lists valid names" true
        (List.for_all (fun k -> contains msg (Policy.name k)) Policy.all));
  match Policy.admission_of_string "nope" with
  | Ok _ -> Alcotest.fail "accepted bogus admission"
  | Error _ -> ()

let test_admission_of_string () =
  (match Policy.admission_of_string "always" with
  | Ok Policy.Admit_always -> ()
  | _ -> Alcotest.fail "always");
  (match Policy.admission_of_string "size:4096" with
  | Ok (Policy.Admit_min_size 4096) -> ()
  | _ -> Alcotest.fail "size:4096");
  (match Policy.admission_of_string "freq" with
  | Ok (Policy.Admit_freq p) ->
      Alcotest.(check (float 1e-9)) "default prob" 0.1 p
  | _ -> Alcotest.fail "freq");
  match Policy.admission_of_string "freq:1.5" with
  | Ok _ -> Alcotest.fail "accepted out-of-range probability"
  | Error _ -> ()

let test_store_rejects_bad_args () =
  (match Store.create ~capacity:0 () with
  | _ -> Alcotest.fail "accepted zero capacity"
  | exception Invalid_argument _ -> ());
  let store = Store.create ~capacity:10 () in
  match Store.add store 1 () ~weight:(-1) with
  | _ -> Alcotest.fail "accepted negative weight"
  | exception Invalid_argument _ -> ()

(* Oversized single entry admitted alone — the seed LRU contract. *)
let test_oversized_entry_admitted_alone () =
  List.iter
    (fun policy ->
      let store = Store.create ~policy ~capacity:10 () in
      ignore (Store.add store 1 () ~weight:50);
      Alcotest.(check int)
        (Policy.name policy ^ ": oversized entry resident")
        1 (Store.length store);
      (* A second entry forces the oversized one out: every policy ranks
         the cold oversized entry as the victim. *)
      ignore (Store.add store 2 () ~weight:5);
      Alcotest.(check int)
        (Policy.name policy ^ ": oversized entry evicted")
        5 (Store.weight store))
    Policy.all

let suite =
  [
    prop_policy Policy.Lru;
    prop_policy Policy.Slru;
    prop_policy Policy.Lfu;
    prop_policy Policy.Gdsf;
    prop_store_weights;
    Alcotest.test_case "LFU keeps hot set under scans" `Quick
      test_lfu_beats_lru_on_scans;
    Alcotest.test_case "SLRU keeps hot set under scans" `Quick
      test_slru_beats_lru_on_scans;
    Alcotest.test_case "GDSF beats LRU byte-hit on heavy tail" `Quick
      test_gdsf_beats_lru_on_byte_hit_rate;
    Alcotest.test_case "min-size admission" `Quick test_min_size_admission;
    Alcotest.test_case "freq admission doorkeeper" `Quick
      test_freq_admission_doorkeeper;
    Alcotest.test_case "replacement bypasses admission" `Quick
      test_replacement_bypasses_admission;
    Alcotest.test_case "budget sheds largest member" `Quick
      test_budget_sheds_largest;
    Alcotest.test_case "budget released on clear" `Quick
      test_budget_clear_releases;
    Alcotest.test_case "policy of_string" `Quick test_of_string;
    Alcotest.test_case "admission of_string" `Quick test_admission_of_string;
    Alcotest.test_case "store argument validation" `Quick
      test_store_rejects_bad_args;
    Alcotest.test_case "oversized entry admitted alone" `Quick
      test_oversized_entry_admitted_alone;
  ]

let lru_suite =
  [
    Alcotest.test_case "basic add/find" `Quick test_lru_basic;
    Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
    Alcotest.test_case "peek does not promote" `Quick
      test_lru_peek_does_not_promote;
    Alcotest.test_case "weighted eviction" `Quick test_lru_weighted;
    Alcotest.test_case "oversized single entry" `Quick
      test_lru_oversized_single_entry;
    Alcotest.test_case "replace re-weighs" `Quick test_lru_replace_reweighs;
    Alcotest.test_case "remove" `Quick test_lru_remove;
    Alcotest.test_case "remove ~evict runs hook" `Quick
      test_lru_remove_evict_runs_hook;
    Alcotest.test_case "set_capacity shrinks" `Quick
      test_lru_set_capacity_shrinks;
    Alcotest.test_case "fold order and lru" `Quick test_lru_order;
    Alcotest.test_case "clear" `Quick test_lru_clear;
    Alcotest.test_case "invalid arguments" `Quick test_lru_invalid;
    prop_lru_capacity_respected;
    prop_lru_most_recent_present;
  ]

let lru_model_suite = [ prop_lru_model 5; prop_lru_model 12; prop_lru_model 1 ]
