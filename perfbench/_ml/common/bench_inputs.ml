(* The files mkinput.exe writes (files.tsv, plan.txt and hot.txt), and
   the request text of each planned request. *)

type t = {
  sizes : int array;
  urls : string array;
  plan_file : int array;  (** file index of each planned request *)
  plan_kind : int array;  (** 0 plain, 1 If-None-Match, 2 Range 0-1023 *)
  hot : int array;  (** file indices of the warm-up pass *)
}

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let load dir =
  let lines name = read_lines (Filename.concat dir name) in
  let files =
    Array.of_list
      (List.map
         (fun l ->
           match String.split_on_char '\t' l with
           | [ _; size; url ] -> (int_of_string size, url)
           | _ -> failwith ("bad files.tsv line: " ^ l))
         (lines "files.tsv"))
  in
  let plan =
    Array.of_list
      (List.map (fun l -> Scanf.sscanf l "%d %d" (fun f k -> (f, k))) (lines "plan.txt"))
  in
  {
    sizes = Array.map fst files;
    urls = Array.map snd files;
    plan_file = Array.map fst plan;
    plan_kind = Array.map snd plan;
    hot = Array.of_list (List.map int_of_string (lines "hot.txt"));
  }

let docroot dir = Filename.concat dir "docroot"

(* The bytes of one request for [url]: HTTP/1.0 plain GET when [http10],
   else an HTTP/1.1 GET of the plan's [kind] (1 carries [etag]). *)
let request ~http10 ~etag url kind =
  if http10 then Printf.sprintf "GET %s HTTP/1.0\r\nHost: bench\r\n\r\n" url
  else
    match kind with
    | 1 -> Printf.sprintf "GET %s HTTP/1.1\r\nHost: bench\r\nIf-None-Match: %s\r\n\r\n" url etag
    | 2 -> Printf.sprintf "GET %s HTTP/1.1\r\nHost: bench\r\nRange: bytes=0-1023\r\n\r\n" url
    | _ -> Printf.sprintf "GET %s HTTP/1.1\r\nHost: bench\r\n\r\n" url
