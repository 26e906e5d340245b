(* Digit by digit: [string_of_int] goes through C's formatter, which
   costs more than the few digits a header field holds. *)
let rec add ?(width = 0) buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add ~width:(width - 1) buf (-n)
  end
  else begin
    let rec ndigits n = if n < 10 then 1 else 1 + ndigits (n / 10) in
    for _ = ndigits n to width - 1 do
      Buffer.add_char buf '0'
    done;
    let rec emit n =
      if n >= 10 then emit (n / 10);
      Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))
    in
    emit n
  end
