exception Parse_error of int * string

let fail line fmt = Format.kasprintf (fun s -> raise (Parse_error (line, s))) fmt

let to_string c =
  let gr = Compressed.graph c in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "n %d\n" (Digraph.n gr));
  for h = 0 to Digraph.n gr - 1 do
    let l = Digraph.label gr h in
    if l <> 0 then Buffer.add_string buf (Printf.sprintf "l %d %d\n" h l)
  done;
  Digraph.iter_edges gr (fun u v ->
      Buffer.add_string buf (Printf.sprintf "e %d %d\n" u v));
  let original_n = Compressed.original_n c in
  Buffer.add_string buf (Printf.sprintf "o %d\n" original_n);
  for v = 0 to original_n - 1 do
    Buffer.add_string buf
      (Printf.sprintf "m %d %d\n" v (Compressed.hypernode c v))
  done;
  Buffer.contents buf

let of_string s =
  let nr = ref (-1) in
  let labels = ref [||] in
  let edges = ref [] in
  let original_n = ref (-1) in
  let node_map = ref [||] in
  List.iteri
    (fun i raw ->
      let lineno = i + 1 in
      let line =
        match String.index_opt raw '#' with
        | Some j -> String.sub raw 0 j
        | None -> raw
      in
      let parts =
        String.split_on_char ' ' (String.trim line)
        |> List.filter (fun p -> p <> "")
      in
      let int_of p =
        match int_of_string_opt p with
        | Some x -> x
        | None -> fail lineno "expected integer, got %S" p
      in
      let hyper p =
        let h = int_of p in
        if !nr < 0 || h < 0 || h >= !nr then
          fail lineno "hypernode %S out of range" p;
        h
      in
      match parts with
      | [] -> ()
      | [ "n"; count ] ->
          if !nr >= 0 then fail lineno "duplicate hypernode-count line";
          let c = int_of count in
          if c < 0 then fail lineno "negative hypernode count";
          nr := c;
          labels := Array.make c 0
      | [ "l"; h; l ] -> !labels.(hyper h) <- int_of l
      | [ "e"; u; v ] -> edges := (hyper u, hyper v) :: !edges
      | [ "o"; count ] ->
          if !original_n >= 0 then fail lineno "duplicate original-count line";
          let c = int_of count in
          if c < 0 then fail lineno "negative original node count";
          original_n := c;
          node_map := Array.make c (-1)
      | [ "m"; v; h ] ->
          if !original_n < 0 then fail lineno "map entry before 'o' line";
          let v = int_of v in
          if v < 0 || v >= !original_n then
            fail lineno "original node %d out of range" v;
          !node_map.(v) <- hyper h
      | kw :: _ -> fail lineno "unknown or malformed record %S" kw)
    (String.split_on_char '\n' s);
  if !nr < 0 then fail 1 "missing hypernode-count line";
  if !original_n < 0 then fail 1 "missing original-count line";
  Array.iteri
    (fun v h -> if h < 0 then fail 1 "node %d missing from the map" v)
    !node_map;
  let graph = Digraph.make ~n:!nr ~labels:!labels !edges in
  match Compressed.v ~graph ~node_map:!node_map with
  | c -> c
  | exception Invalid_argument msg -> fail 1 "%s" msg

(* ------------------------------------------------------------------ *)
(* Binary snapshots: magic "QPGC", kind 'C', version byte, two reserved
   bytes, then the compressed graph Gr as an embedded Graph_io graph blob,
   the original node count, and the node map R as int32 entries.  The
   inverse index (members) is rederived by [Compressed.v] on load, exactly
   as for the text format. *)

let bad fmt = fail 0 fmt

(* Version 2 allows the embedded Gr blob to be either Graph_io snapshot
   kind ('G' or 'M'); version-1 snapshots (always 'G') still load. *)
let binary_version = 2

let to_binary_string ?(graph_format = Digraph.Flat) c =
  let gr = Compressed.graph c in
  let original_n = Compressed.original_n c in
  let buf = Buffer.create (64 + (12 * Digraph.n gr) + (4 * Digraph.m gr) + (4 * original_n)) in
  Buffer.add_string buf "QPGC";
  Buffer.add_char buf 'C';
  Buffer.add_char buf (Char.chr binary_version);
  Buffer.add_char buf '\000';
  Buffer.add_char buf '\000';
  (* The blob starts at offset 8, already 8-aligned — an 'M' blob needs no
     padding here. *)
  Graph_io.add_any_blob buf ~format:graph_format gr;
  Buffer.add_int64_le buf (Int64.of_int original_n);
  for v = 0 to original_n - 1 do
    Buffer.add_int32_le buf (Int32.of_int (Compressed.hypernode c v))
  done;
  Buffer.contents buf

let check_header s =
  if String.length s < 8 || String.sub s 0 4 <> "QPGC" then
    bad "bad magic: not a qpgc binary snapshot";
  if s.[4] <> 'C' then
    bad "wrong snapshot kind '%c' (expected 'C')" s.[4];
  let v = Char.code s.[5] in
  if v < 1 || v > binary_version then bad "unsupported snapshot version %d" v

(* The original-count + node-map tail that follows the graph blob. *)
let read_node_map s pos =
  if pos + 8 > String.length s then bad "binary snapshot truncated reading original count";
  let original_n = Int64.to_int (String.get_int64_le s pos) in
  if original_n < 0 then bad "negative original node count";
  let pos = pos + 8 in
  if original_n > (String.length s - pos) / 4 then
    bad "binary snapshot truncated reading node map";
  Array.init original_n (fun i ->
      Int32.to_int (String.get_int32_le s (pos + (4 * i))))

(* Header, then Gr through [blob] (which returns the position past it),
   then the node map read by [tail]. *)
let of_parts ~head ~blob ~tail =
  check_header head;
  let (graph, _table), pos =
    try blob 8
    with Graph_io.Parse_error (line, msg) -> raise (Parse_error (line, msg))
  in
  match Compressed.v ~graph ~node_map:(tail pos) with
  | c -> c
  | exception Invalid_argument msg -> bad "%s" msg

let of_binary_string s =
  of_parts ~head:s ~blob:(Graph_io.of_any_blob s) ~tail:(read_node_map s)

let save_binary ?graph_format path c =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_binary_string ?graph_format c))

let save path c =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string c))

(* Read [path] from byte [pos] to the end, or only its first [len] bytes. *)
let read_file ?(pos = 0) ?len path =
  In_channel.with_open_bin path (fun ic ->
      In_channel.seek ic (Int64.of_int pos);
      match len with
      | None -> In_channel.input_all ic
      | Some k -> Option.value (In_channel.really_input_string ic k) ~default:"")

(* With [~mmap:true] and an 'M' blob, Gr maps in place and only the
   header and the node-map tail are read, so Gr's adjacency never
   transits the heap. *)
let load ?mmap path =
  match Graph_io.sniff path with
  | None -> of_string (read_file path)
  | Some _ ->
      of_parts ~head:(read_file ~len:8 path) ~blob:(Graph_io.read_blob ?mmap path)
        ~tail:(fun pos -> read_node_map (read_file ~pos path) 0)
