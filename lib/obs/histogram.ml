type t = {
  base : float;
  log_base : float;
  lo : float;
  mutable counts : int array;
  mutable used : int;  (* buckets.(0 .. used-1) may be non-zero *)
  mutable total : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

let default_base = Float.pow 2. 0.125
let default_lo = 1e-6

let create ?(base = default_base) ?(lo = default_lo) () =
  if not (base > 1.) then invalid_arg "Obs.Histogram.create: base <= 1";
  if not (lo > 0.) then invalid_arg "Obs.Histogram.create: lo <= 0";
  {
    base;
    log_base = Float.log base;
    lo;
    counts = Array.make 32 0;
    used = 0;
    total = 0;
    sum = 0.;
    min_v = infinity;
    max_v = neg_infinity;
  }

let base t = t.base
let lo t = t.lo

(* Bucket 0 is (-inf, lo]; bucket i >= 1 is (lo*base^(i-1), lo*base^i]. *)
let index t x =
  if x <= t.lo then 0
  else 1 + int_of_float (Float.log (x /. t.lo) /. t.log_base)

let upper_edge t i = if i = 0 then t.lo else t.lo *. Float.pow t.base (float_of_int i)
let lower_edge t i = if i = 0 then neg_infinity else upper_edge t (i - 1)

let ensure t i =
  let n = Array.length t.counts in
  if i >= n then begin
    let n' = Stdlib.max (i + 1) (2 * n) in
    let counts = Array.make n' 0 in
    Array.blit t.counts 0 counts 0 n;
    t.counts <- counts
  end

let record t x =
  if Float.is_finite x then begin
    let i = index t x in
    ensure t i;
    t.counts.(i) <- t.counts.(i) + 1;
    if i >= t.used then t.used <- i + 1;
    t.total <- t.total + 1;
    t.sum <- t.sum +. x;
    if x < t.min_v then t.min_v <- x;
    if x > t.max_v then t.max_v <- x
  end

let count t = t.total
let sum t = t.sum
let mean t = if t.total = 0 then nan else t.sum /. float_of_int t.total
let min t = if t.total = 0 then nan else t.min_v
let max t = if t.total = 0 then nan else t.max_v

let percentile t p =
  if p < 0. || p > 100. then invalid_arg "Obs.Histogram.percentile: p outside [0, 100]";
  if t.total = 0 then nan
  else begin
    let rank =
      let r = int_of_float (Float.ceil (p /. 100. *. float_of_int t.total)) in
      Stdlib.max 1 (Stdlib.min t.total r)
    in
    let rec loop i seen =
      let seen = seen + t.counts.(i) in
      if seen >= rank then upper_edge t i else loop (i + 1) seen
    in
    let edge = loop 0 0 in
    Float.min t.max_v (Float.max t.min_v edge)
  end

(* Observations at or below [x]: every bucket whose upper edge is <= x.
   Values inside the bucket straddling [x] are excluded — the estimate
   is a lower bound whose error is one bucket's width, and it is
   monotone in [x], which is what cumulative exposition needs. *)
let count_le t x =
  let acc = ref 0 in
  for i = 0 to t.used - 1 do
    if upper_edge t i <= x then acc := !acc + t.counts.(i)
  done;
  !acc

let copy t = { t with counts = Array.copy t.counts }

(* [diff newer older]: the histogram of observations recorded between
   the [older] snapshot and the [newer] one — exact on bucket counts
   (the windowed histograms the flight recorder's rollups carry, which
   is why merging all rollups reproduces the global bucket counts).
   Exact extrema are unrecoverable from counts alone, so min/max are
   reconstructed from the outermost non-empty buckets' edges. *)
let diff newer older =
  if newer.base <> older.base || newer.lo <> older.lo then
    invalid_arg "Obs.Histogram.diff: mismatched base/lo";
  let d = copy newer in
  for i = 0 to older.used - 1 do
    ensure d i;
    d.counts.(i) <- Stdlib.max 0 (d.counts.(i) - older.counts.(i))
  done;
  d.total <- Stdlib.max 0 (newer.total - older.total);
  d.sum <- Float.max 0. (newer.sum -. older.sum);
  d.min_v <- infinity;
  d.max_v <- neg_infinity;
  for i = d.used - 1 downto 0 do
    if d.counts.(i) > 0 then begin
      if Float.is_finite (lower_edge d i) then d.min_v <- lower_edge d i
      else d.min_v <- 0.;
      if d.max_v = neg_infinity then d.max_v <- upper_edge d i
    end
  done;
  d

let merge a b =
  if a.base <> b.base || a.lo <> b.lo then
    invalid_arg "Obs.Histogram.merge: mismatched base/lo";
  let m = copy a in
  ensure m (b.used - 1);
  for i = 0 to b.used - 1 do
    m.counts.(i) <- m.counts.(i) + b.counts.(i)
  done;
  m.used <- Stdlib.max a.used b.used;
  m.total <- a.total + b.total;
  m.sum <- a.sum +. b.sum;
  m.min_v <- Float.min a.min_v b.min_v;
  m.max_v <- Float.max a.max_v b.max_v;
  m

let of_counts ?base ?lo counts ~sum ~min ~max =
  let t = create ?base ?lo () in
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        ensure t i;
        t.counts.(i) <- c;
        t.used <- i + 1;
        t.total <- t.total + c
      end)
    counts;
  if t.total > 0 then { t with sum; min_v = min; max_v = max } else t

let buckets t =
  let out = ref [] in
  for i = t.used - 1 downto 0 do
    if t.counts.(i) > 0 then
      out := (lower_edge t i, upper_edge t i, t.counts.(i)) :: !out
  done;
  !out

let reset t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.used <- 0;
  t.total <- 0;
  t.sum <- 0.;
  t.min_v <- infinity;
  t.max_v <- neg_infinity
