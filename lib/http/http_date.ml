(* Howard Hinnant's civil-from-days algorithm. *)
let civil_of_days z =
  let z = z + 719468 in
  let era = (if z >= 0 then z else z - 146096) / 146097 in
  let doe = z - (era * 146097) in
  let yoe = (doe - (doe / 1460) + (doe / 36524) - (doe / 146096)) / 365 in
  let y = yoe + (era * 400) in
  let doy = doe - ((365 * yoe) + (yoe / 4) - (yoe / 100)) in
  let mp = ((5 * doy) + 2) / 153 in
  let d = doy - (((153 * mp) + 2) / 5) + 1 in
  let m = if mp < 10 then mp + 3 else mp - 9 in
  let y = if m <= 2 then y + 1 else y in
  (y, m, d)

let weekday_of_days days = (((days mod 7) + 7) mod 7 + 4) mod 7

let weekday_names = [| "Sun"; "Mon"; "Tue"; "Wed"; "Thu"; "Fri"; "Sat" |]

let weekday_long_names =
  [| "Sunday"; "Monday"; "Tuesday"; "Wednesday";
     "Thursday"; "Friday"; "Saturday" |]

let month_names =
  [| "Jan"; "Feb"; "Mar"; "Apr"; "May"; "Jun";
     "Jul"; "Aug"; "Sep"; "Oct"; "Nov"; "Dec" |]

(* Days from civil date (inverse of civil_of_days; same source). *)
let days_of_civil y m d =
  let y = if m <= 2 then y - 1 else y in
  let era = (if y >= 0 then y else y - 399) / 400 in
  let yoe = y - (era * 400) in
  let mp = if m > 2 then m - 3 else m + 9 in
  let doy = (((153 * mp) + 2) / 5) + d - 1 in
  let doe = (yoe * 365) + (yoe / 4) - (yoe / 100) + doy in
  (era * 146097) + doe - 719468

let month_of_name name =
  let rec scan i =
    if i >= 12 then None
    else if month_names.(i) = name then Some (i + 1)
    else scan (i + 1)
  in
  scan 0

let mem_array a x = Array.exists (String.equal x) a

exception Bad

(* All three RFC 9110 §5.6.7 formats, parsed with a strict cursor so
   trailing garbage is rejected:
     IMF-fixdate  "Sun, 06 Nov 1994 08:49:37 GMT"
     RFC 850      "Sunday, 06-Nov-94 08:49:37 GMT"
     asctime      "Sun Nov  6 08:49:37 1994"
   The grammar is discriminated by the first token: a short weekday
   followed by "," is IMF-fixdate, a long weekday is RFC 850, a short
   weekday followed by a space is asctime.  The weekday itself is
   accepted but otherwise ignored, as the RFC instructs. *)
let parse s =
  let s = String.trim s in
  let n = String.length s in
  let pos = ref 0 in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos else raise Bad
  in
  let expect_str str = String.iter expect str in
  let digit () =
    if !pos < n then
      match s.[!pos] with
      | '0' .. '9' as c ->
          incr pos;
          Char.code c - Char.code '0'
      | _ -> raise Bad
    else raise Bad
  in
  let fixed_int k =
    let rec go acc i = if i = 0 then acc else go ((acc * 10) + digit ()) (i - 1) in
    go 0 k
  in
  let is_alpha = function 'a' .. 'z' | 'A' .. 'Z' -> true | _ -> false in
  let token () =
    let start = !pos in
    while !pos < n && is_alpha s.[!pos] do
      incr pos
    done;
    String.sub s start (!pos - start)
  in
  let month () =
    match month_of_name (token ()) with Some m -> m | None -> raise Bad
  in
  let time () =
    let hh = fixed_int 2 in
    expect ':';
    let mm = fixed_int 2 in
    expect ':';
    let ss = fixed_int 2 in
    (* Leap seconds appear in real Last-Modified values; accept 60. *)
    if hh > 23 || mm > 59 || ss > 60 then raise Bad;
    (hh, mm, ss)
  in
  let finish y m d (hh, mm, ss) =
    if d < 1 || d > 31 then raise Bad;
    if !pos <> n then raise Bad;
    Some
      (float_of_int
         ((days_of_civil y m d * 86400) + (hh * 3600) + (mm * 60) + ss))
  in
  try
    let wd = token () in
    if mem_array weekday_names wd && !pos < n && s.[!pos] = ',' then begin
      (* IMF-fixdate: "Sun, 06 Nov 1994 08:49:37 GMT" *)
      expect ',';
      expect ' ';
      let d = fixed_int 2 in
      expect ' ';
      let m = month () in
      expect ' ';
      let y = fixed_int 4 in
      expect ' ';
      let tm = time () in
      expect_str " GMT";
      finish y m d tm
    end
    else if mem_array weekday_long_names wd then begin
      (* RFC 850: "Sunday, 06-Nov-94 08:49:37 GMT".  Two-digit years
         are pivoted at 70: 70-99 are 19xx, 00-69 are 20xx. *)
      expect ',';
      expect ' ';
      let d = fixed_int 2 in
      expect '-';
      let m = month () in
      expect '-';
      let y2 = fixed_int 2 in
      let y = if y2 >= 70 then 1900 + y2 else 2000 + y2 in
      expect ' ';
      let tm = time () in
      expect_str " GMT";
      finish y m d tm
    end
    else if mem_array weekday_names wd then begin
      (* asctime: "Sun Nov  6 08:49:37 1994" — day is space-padded. *)
      expect ' ';
      let m = month () in
      expect ' ';
      let d =
        if !pos < n && s.[!pos] = ' ' then begin
          incr pos;
          digit ()
        end
        else fixed_int 2
      in
      expect ' ';
      let tm = time () in
      expect ' ';
      let y = fixed_int 4 in
      finish y m d tm
    end
    else None
  with Bad -> None

let split_timestamp ts =
  let total = int_of_float (floor ts) in
  let days = if total >= 0 then total / 86400 else (total - 86399) / 86400 in
  let secs = total - (days * 86400) in
  let year, month, day = civil_of_days days in
  let hh = secs / 3600 in
  let mm = secs mod 3600 / 60 in
  let ss = secs mod 60 in
  (days, year, month, day, hh, mm, ss)

let format ts =
  let days, year, month, day, hh, mm, ss = split_timestamp ts in
  let buf = Buffer.create 29 in
  Buffer.add_string buf weekday_names.(weekday_of_days days);
  Buffer.add_string buf ", ";
  Decimal.add ~width:2 buf day;
  Buffer.add_char buf ' ';
  Buffer.add_string buf month_names.(month - 1);
  Buffer.add_char buf ' ';
  Decimal.add ~width:4 buf year;
  Buffer.add_char buf ' ';
  Decimal.add ~width:2 buf hh;
  Buffer.add_char buf ':';
  Decimal.add ~width:2 buf mm;
  Buffer.add_char buf ':';
  Decimal.add ~width:2 buf ss;
  Buffer.add_string buf " GMT";
  Buffer.contents buf

let format_rfc850 ts =
  let days, year, month, day, hh, mm, ss = split_timestamp ts in
  Printf.sprintf "%s, %02d-%s-%02d %02d:%02d:%02d GMT"
    weekday_long_names.(weekday_of_days days)
    day
    month_names.(month - 1)
    (year mod 100) hh mm ss

let format_asctime ts =
  let days, year, month, day, hh, mm, ss = split_timestamp ts in
  Printf.sprintf "%s %s %2d %02d:%02d:%02d %04d"
    weekday_names.(weekday_of_days days)
    month_names.(month - 1)
    day hh mm ss year
