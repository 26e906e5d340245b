(** Decimal integers rendered straight into a buffer, for the header
    fields a response builder writes (status code, Content-Length, date
    fields) without going through [Printf] or [string_of_int]. *)

(** [add ?width buf n] appends [n] in decimal, zero-padded to [width]
    characters exactly as [Printf]'s [%0*d] pads it: a minus sign counts
    toward the width.  [width] defaults to 0 (no padding).  [n] must not
    be [min_int]. *)
val add : ?width:int -> Buffer.t -> int -> unit
