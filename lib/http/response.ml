let default_server = "Flash/1.0 (OCaml)"

(* Render into [buf] (dates already formatted); returns the offset just
   past the Server value, where alignment padding goes. *)
let render buf ~version ~server ~content_type ~content_length ~keep_alive
    ~date ~last_modified ~extra ~status =
  Buffer.add_string buf version;
  Buffer.add_char buf ' ';
  Decimal.add buf (Status.code status);
  Buffer.add_char buf ' ';
  Buffer.add_string buf (Status.reason status);
  Buffer.add_string buf "\r\nServer: ";
  Buffer.add_string buf server;
  let server_end = Buffer.length buf in
  Buffer.add_string buf "\r\n";
  (match date with
  | Some d ->
      Buffer.add_string buf "Date: ";
      Buffer.add_string buf d;
      Buffer.add_string buf "\r\n"
  | None -> ());
  (match last_modified with
  | Some d ->
      Buffer.add_string buf "Last-Modified: ";
      Buffer.add_string buf d;
      Buffer.add_string buf "\r\n"
  | None -> ());
  (match content_type with
  | Some ct ->
      Buffer.add_string buf "Content-Type: ";
      Buffer.add_string buf ct;
      Buffer.add_string buf "\r\n"
  | None -> ());
  (match content_length with
  | Some len ->
      Buffer.add_string buf "Content-Length: ";
      Decimal.add buf len;
      Buffer.add_string buf "\r\n"
  | None -> ());
  (match keep_alive with
  | Some true -> Buffer.add_string buf "Connection: keep-alive\r\n"
  | Some false -> Buffer.add_string buf "Connection: close\r\n"
  | None -> ());
  List.iter
    (fun (name, value) ->
      Buffer.add_string buf name;
      Buffer.add_string buf ": ";
      Buffer.add_string buf value;
      Buffer.add_string buf "\r\n")
    extra;
  Buffer.add_string buf "\r\n";
  server_end

(* The rendered header, padded at [server_end] to a multiple of [align]:
   the variable-length Server field grows (§5.5), so the header grows by
   exactly the padding. *)
let aligned buf ~server_end align =
  match align with
  | None -> Buffer.contents buf
  | Some a ->
      if a <= 0 then invalid_arg "Response.header: align <= 0";
      let len = Buffer.length buf in
      let remainder = len mod a in
      if remainder = 0 then Buffer.contents buf
      else begin
        let pad = a - remainder in
        let out = Bytes.create (len + pad) in
        Buffer.blit buf 0 out 0 server_end;
        Bytes.fill out server_end pad ' ';
        Buffer.blit buf server_end out (server_end + pad) (len - server_end);
        Bytes.unsafe_to_string out
      end

let header ?(version = "HTTP/1.0") ?(server = default_server) ?content_type
    ?content_length ?keep_alive ?date ?last_modified ?(extra = []) ?align
    ~status () =
  let buf = Buffer.create 256 in
  let server_end =
    render buf ~version ~server ~content_type ~content_length ~keep_alive
      ~date:(Option.map Http_date.format date)
      ~last_modified:(Option.map Http_date.format last_modified)
      ~extra ~status
  in
  aligned buf ~server_end align

(* One date format per field and one buffer for both variants. *)
let header_pair ?(version = "HTTP/1.0") ?(server = default_server)
    ?content_type ?content_length ?date ?last_modified ?(extra = []) ?align
    ~status () =
  let date = Option.map Http_date.format date in
  let last_modified = Option.map Http_date.format last_modified in
  let buf = Buffer.create 256 in
  let variant keep_alive =
    Buffer.clear buf;
    let server_end =
      render buf ~version ~server ~content_type ~content_length
        ~keep_alive:(Some keep_alive) ~date ~last_modified ~extra ~status
    in
    aligned buf ~server_end align
  in
  let keep = variant true in
  (keep, variant false)

let retry_after seconds =
  if seconds < 0 then invalid_arg "Response.retry_after: negative delay";
  ("Retry-After", string_of_int seconds)

let error_body status =
  Printf.sprintf
    "<html><head><title>%s</title></head><body><h1>%s</h1></body></html>\n"
    (Status.line_fragment status)
    (Status.line_fragment status)
