module Label_table = struct
  type t = {
    by_name : int Mono.Stbl.t;
    mutable names : string array;
    mutable count : int;
  }

  let create () = { by_name = Mono.Stbl.create 16; names = Array.make 8 ""; count = 0 }

  let intern t name =
    match Mono.Stbl.find_opt t.by_name name with
    | Some id -> id
    | None ->
        if t.count = Array.length t.names then begin
          let bigger = Array.make (2 * t.count) "" in
          Array.blit t.names 0 bigger 0 t.count;
          t.names <- bigger
        end;
        let id = t.count in
        t.names.(id) <- name;
        t.count <- t.count + 1;
        Mono.Stbl.replace t.by_name name id;
        id

  let name t id =
    if id < 0 || id >= t.count then raise Not_found;
    t.names.(id)

  let count t = t.count
end

exception Parse_error of int * string

let fail line fmt = Format.kasprintf (fun s -> raise (Parse_error (line, s))) fmt

let of_string s =
  let table = Label_table.create () in
  (* Unlabeled nodes get "_"; it is interned lazily so label ids round-trip
     unchanged when every node carries an explicit label. *)
  let n = ref (-1) in
  let labels = ref [||] in
  let edges = ref [] in
  let lines = String.split_on_char '\n' s in
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
      match parts with
      | [] -> ()
      | [ "n"; count ] ->
          if !n >= 0 then fail lineno "duplicate node-count line";
          let c = int_of count in
          if c < 0 then fail lineno "negative node count";
          n := c;
          labels := Array.make c (-1)
      | "n" :: _ -> fail lineno "malformed node-count line"
      | [ "l"; v; name ] ->
          if !n < 0 then fail lineno "label before node-count line";
          let v = int_of v in
          if v < 0 || v >= !n then fail lineno "node %d out of range" v;
          !labels.(v) <- Label_table.intern table name
      | "l" :: _ -> fail lineno "malformed label line"
      | [ "e"; u; v ] ->
          if !n < 0 then fail lineno "edge before node-count line";
          let u = int_of u and v = int_of v in
          if u < 0 || u >= !n then fail lineno "node %d out of range" u;
          if v < 0 || v >= !n then fail lineno "node %d out of range" v;
          edges := (u, v) :: !edges
      | "e" :: _ -> fail lineno "malformed edge line"
      | kw :: _ -> fail lineno "unknown record %S" kw)
    lines;
  if !n < 0 then fail 1 "missing node-count line";
  let labels =
    Array.map
      (fun l -> if l >= 0 then l else Label_table.intern table "_")
      !labels
  in
  (Digraph.make ~n:!n ~labels !edges, table)

let to_string ?labels g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "n %d\n" (Digraph.n g));
  for v = 0 to Digraph.n g - 1 do
    let l = Digraph.label g v in
    let name =
      match labels with
      | Some t -> (try Label_table.name t l with Not_found -> Printf.sprintf "l%d" l)
      | None -> Printf.sprintf "l%d" l
    in
    if name <> "_" then Buffer.add_string buf (Printf.sprintf "l %d %s\n" v name)
  done;
  Digraph.iter_edges g (fun u v ->
      Buffer.add_string buf (Printf.sprintf "e %d %d\n" u v));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Binary snapshots.

   Layout (all integers little-endian):

     offset  size          field
     0       4             magic "QPGC"
     4       1             kind 'G' (graph)
     5       1             version (1)
     6       2             reserved (0)
     8       8             n
     16      8             m
     24      8*(n+1)       out-CSR offsets (int64)
     ...     4*m           out-CSR adjacency (int32)
     ...     4*n           labels (int32)
     ...     8             label-name count k
     ...     per name      int32 length + bytes, ids 0..k-1 in order

   The adjacency and label blobs are the graph's canonical CSR, so loading
   is a header check plus three array reads — no parsing, no sorting; only
   the in-mirror is rebuilt (O(n + m) counting sort).  Node ids and labels
   are stored as int32: graphs beyond 2^31 nodes do not fit the dense-int
   node model anyway. *)

let magic = "QPGC"
let version = 1

let bad fmt = fail 0 fmt

(* Shared by both kinds: the label-name table is an int64 count [k]
   followed by [k] names (int32 length + bytes), ids 0..k-1 in order. *)
let add_names buf labels =
  match labels with
  | None -> Buffer.add_int64_le buf 0L
  | Some t ->
      let k = Label_table.count t in
      Buffer.add_int64_le buf (Int64.of_int k);
      for id = 0 to k - 1 do
        let name = Label_table.name t id in
        Buffer.add_int32_le buf (Int32.of_int (String.length name));
        Buffer.add_string buf name
      done

let add_header buf kind =
  Buffer.add_string buf magic;
  Buffer.add_char buf kind;
  Buffer.add_char buf (Char.chr version);
  Buffer.add_char buf '\000';
  Buffer.add_char buf '\000'

let add_graph_blob buf ?labels g =
  let n = Digraph.n g and m = Digraph.m g in
  add_header buf 'G';
  Buffer.add_int64_le buf (Int64.of_int n);
  Buffer.add_int64_le buf (Int64.of_int m);
  let out_off, out_adj = Digraph.out_csr g in
  Array.iter (fun o -> Buffer.add_int64_le buf (Int64.of_int o)) out_off;
  Array.iter (fun v -> Buffer.add_int32_le buf (Int32.of_int v)) out_adj;
  Array.iter (fun l -> Buffer.add_int32_le buf (Int32.of_int l)) (Digraph.labels g);
  add_names buf labels

let to_binary_string ?labels g =
  let buf = Buffer.create (32 + (12 * Digraph.n g) + (4 * Digraph.m g)) in
  add_graph_blob buf ?labels g;
  Buffer.contents buf

(* Cursor-style readers over an in-memory blob; every access is
   bounds-checked so a truncated or corrupt file fails with Parse_error,
   never an ugly out-of-bounds exception.  [need] divides rather than
   multiplies, so a corrupt count cannot overflow past the check. *)
let need ?(width = 1) s pos count what =
  if pos < 0 || pos > String.length s || count < 0
     || count > (String.length s - pos) / width
  then bad "binary snapshot truncated reading %s" what

let read_i64 s pos what =
  need s pos 8 what;
  let x = Int64.to_int (String.get_int64_le s pos) in
  if x < 0 then bad "negative %s in binary snapshot" what;
  (x, pos + 8)

let read_i32 s pos what =
  need s pos 4 what;
  let x = Int32.to_int (String.get_int32_le s pos) in
  if x < 0 then bad "negative %s in binary snapshot" what;
  (x, pos + 4)

let read_i32_array s pos count what =
  need ~width:4 s pos count what;
  (Array.init count (fun i -> Int32.to_int (String.get_int32_le s (pos + (4 * i)))),
   pos + (4 * count))

let read_i64_array s pos count what =
  need ~width:8 s pos count what;
  ( Array.init count (fun i ->
        let x = Int64.to_int (String.get_int64_le s (pos + (8 * i))) in
        if x < 0 then bad "negative %s in binary snapshot" what;
        x),
    pos + (8 * count) )

let read_names s pos =
  let k, pos = read_i64 s pos "label-name count" in
  let table = Label_table.create () in
  let pos = ref pos in
  for id = 0 to k - 1 do
    let len, p = read_i32 s !pos "label-name length" in
    need s p len "label name";
    let name = String.sub s p len in
    if Label_table.intern table name <> id then
      bad "duplicate label name %S in binary snapshot" name;
    pos := p + len
  done;
  (table, !pos)

(* Checks magic + kind + version at [start] and returns the position just
   past the 8-byte header. *)
let check_header s start kind =
  need s start 8 "header";
  if String.sub s start 4 <> magic then
    bad "bad magic: not a qpgc binary snapshot";
  if s.[start + 4] <> kind then
    bad "wrong snapshot kind '%c' (expected '%c')" s.[start + 4] kind;
  let v = Char.code s.[start + 5] in
  if v <> version then bad "unsupported snapshot version %d" v;
  start + 8

(* The CSR a parser read, re-validated in full. *)
let checked_csr ~n ~labels ~out_off ~out_adj =
  let g =
    match Digraph.of_csr_unchecked ~n ~labels ~out_off ~out_adj with
    | g -> g
    | exception Invalid_argument msg -> bad "%s" msg
  in
  (match Digraph.validate g with
  | () -> ()
  | exception Failure msg -> bad "invalid CSR in binary snapshot: %s" msg);
  g

let of_binary_substring s start =
  let pos = check_header s start 'G' in
  let n, pos = read_i64 s pos "node count" in
  let m, pos = read_i64 s pos "edge count" in
  need ~width:8 s pos (n + 1) "offsets";
  let out_off =
    Array.init (n + 1) (fun i -> Int64.to_int (String.get_int64_le s (pos + (8 * i))))
  in
  let pos = pos + (8 * (n + 1)) in
  let out_adj, pos = read_i32_array s pos m "adjacency" in
  let labels, pos = read_i32_array s pos n "labels" in
  if Array.exists (fun l -> l < 0) labels then bad "negative label";
  let table, pos = read_names s pos in
  ((checked_csr ~n ~labels ~out_off ~out_adj, table), pos)

(* ------------------------------------------------------------------ *)
(* 'M': the zero-copy mapped snapshot.

   Layout (version 1) — every section is int64 little-endian and starts at
   an offset that is a multiple of 8 relative to the blob (writers pad the
   stream so nested blobs land 8-aligned absolutely), which lets the loader
   hand out int-kind Bigarray views straight over the mapped pages:

     offset            size      field
     0                 8         magic "QPGC", kind 'M', version, reserved
     8                 8         n
     16                8         m
     24                8         label_count
     32                8         names_len (byte length of the name table)
     40                8         total_len (whole blob incl. trailing pad)
     48                8*(n+1)   out-CSR offsets
     ...               8*m       out-CSR adjacency
     ...               8*(n+1)   in-CSR offsets
     ...               8*m       in-CSR adjacency
     ...               8*n       labels
     ...               names_len label-name table (as in 'G')
     ...               pad to 8

   Unlike 'G', both mirrors are stored, so opening the snapshot is O(1) in
   the graph size: parse the fixed header and the (graph-size-independent)
   name table, then map five views.  The price is a fatter file (~8 bytes
   per stored int); that is page-cache, not heap. *)

let align8 p = (p + 7) land lnot 7

let mapped_header_len = 48

(* Header counts above this cannot describe a real file and would
   overflow the section arithmetic below. *)
let max_count = max_int / 64

let mapped_section_offsets ~n ~m =
  let off0 = mapped_header_len in
  let adj0 = off0 + (8 * (n + 1)) in
  let ioff0 = adj0 + (8 * m) in
  let iadj0 = ioff0 + (8 * (n + 1)) in
  let lab0 = iadj0 + (8 * m) in
  let names0 = lab0 + (8 * n) in
  (off0, adj0, ioff0, iadj0, lab0, names0)

let add_mapped_blob buf ?labels g =
  while Buffer.length buf land 7 <> 0 do
    Buffer.add_char buf '\000'
  done;
  let n = Digraph.n g and m = Digraph.m g in
  let names =
    let nb = Buffer.create 64 in
    add_names nb labels;
    Buffer.contents nb
  in
  let _, _, _, _, _, names0 = mapped_section_offsets ~n ~m in
  let total_len = align8 (names0 + String.length names) in
  add_header buf 'M';
  Buffer.add_int64_le buf (Int64.of_int n);
  Buffer.add_int64_le buf (Int64.of_int m);
  Buffer.add_int64_le buf (Int64.of_int (Digraph.label_count g));
  Buffer.add_int64_le buf (Int64.of_int (String.length names));
  Buffer.add_int64_le buf (Int64.of_int total_len);
  let out_off, out_adj = Digraph.out_csr g in
  let in_off, in_adj = Digraph.in_csr g in
  Array.iter (fun o -> Buffer.add_int64_le buf (Int64.of_int o)) out_off;
  Array.iter (fun v -> Buffer.add_int64_le buf (Int64.of_int v)) out_adj;
  Array.iter (fun o -> Buffer.add_int64_le buf (Int64.of_int o)) in_off;
  Array.iter (fun v -> Buffer.add_int64_le buf (Int64.of_int v)) in_adj;
  for v = 0 to n - 1 do
    Buffer.add_int64_le buf (Int64.of_int (Digraph.label g v))
  done;
  Buffer.add_string buf names;
  for _ = names0 + String.length names to total_len - 1 do
    Buffer.add_char buf '\000'
  done

(* The fields every 'M' reader needs, with the O(1) consistency checks:
   sections must tile the declared [total_len] exactly. *)
let read_mapped_header s start =
  let pos = check_header s start 'M' in
  let n, pos = read_i64 s pos "node count" in
  let m, pos = read_i64 s pos "edge count" in
  let label_count, pos = read_i64 s pos "label count" in
  let names_len, pos = read_i64 s pos "name-table length" in
  let total_len, _pos = read_i64 s pos "blob length" in
  if label_count < 1 then bad "label count below 1 in mapped snapshot";
  if n > max_count || m > max_count || names_len > max_count then
    bad "mapped snapshot counts out of range";
  let _, _, _, _, _, names0 = mapped_section_offsets ~n ~m in
  if total_len <> align8 (names0 + names_len) then
    bad "mapped snapshot section table does not tile the blob";
  (n, m, label_count, names_len, total_len)

(* Eager parse of an 'M' blob into the flat backend — the portable path
   (works from a plain string, checks everything).  The stored in-mirror
   must agree with the one derived from the out-CSR. *)
let of_mapped_substring s start =
  let n, m, label_count, names_len, total_len = read_mapped_header s start in
  need s start total_len "mapped snapshot body";
  let off0, adj0, ioff0, iadj0, lab0, names0 = mapped_section_offsets ~n ~m in
  let out_off, _ = read_i64_array s (start + off0) (n + 1) "offsets" in
  let out_adj, _ = read_i64_array s (start + adj0) m "adjacency" in
  let in_off, _ = read_i64_array s (start + ioff0) (n + 1) "in-offsets" in
  let in_adj, _ = read_i64_array s (start + iadj0) m "in-adjacency" in
  let labels, _ = read_i64_array s (start + lab0) n "labels" in
  let table, names_end = read_names s (start + names0) in
  if names_end > start + names0 + names_len then
    bad "name table overruns its declared length";
  let g = checked_csr ~n ~labels ~out_off ~out_adj in
  if Digraph.label_count g <> label_count then
    bad "label count field disagrees with label section";
  let d_in_off, d_in_adj = Digraph.in_csr g in
  if d_in_off <> in_off || d_in_adj <> in_adj then
    bad "stored in-mirror disagrees with out-CSR";
  ((g, table), start + total_len)

(* Zero-copy open: O(1) in the graph size.  Only the fixed header and the
   name table are read eagerly; the five int64 sections become int-kind
   Bigarray views over the mapped pages.  Structural validation here is
   O(1) (bounds, tiling, CSR endpoints); [check_mapped] does the deep
   check.  [offset] must be 8-aligned so the views are; returns the
   position past the blob as well. *)
let map_mapped ~offset path =
  let ic = open_in_bin path in
  let n, m, label_count, table, total_len =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let file_len = in_channel_length ic in
        if offset < 0 || offset + mapped_header_len > file_len then
          bad "mapped snapshot header out of file bounds";
        seek_in ic offset;
        let head = really_input_string ic mapped_header_len in
        let n, m, label_count, names_len, total_len = read_mapped_header head 0 in
        if offset + total_len > file_len then
          bad "mapped snapshot body out of file bounds";
        let _, _, _, _, _, names0 = mapped_section_offsets ~n ~m in
        seek_in ic (offset + names0);
        let names = really_input_string ic names_len in
        let table, names_end = read_names names 0 in
        if names_end > names_len then
          bad "name table overruns its declared length";
        (n, m, label_count, table, total_len))
  in
  let off0, adj0, ioff0, iadj0, lab0, _ = mapped_section_offsets ~n ~m in
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  let g =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        let section pos len : Digraph.int_ba =
          if len = 0 then
            Bigarray.Array1.create Bigarray.int Bigarray.c_layout 0
          else
            Bigarray.array1_of_genarray
              (Unix.map_file fd
                 ~pos:(Int64.of_int (offset + pos))
                 Bigarray.int Bigarray.c_layout false [| len |])
        in
        let out_off = section off0 (n + 1) in
        let out_adj = section adj0 m in
        let in_off = section ioff0 (n + 1) in
        let in_adj = section iadj0 m in
        let labels = section lab0 n in
        if n > 0 then begin
          if out_off.{0} <> 0 || out_off.{n} <> m then
            bad "mapped out-offsets do not span [0,m]";
          if in_off.{0} <> 0 || in_off.{n} <> m then
            bad "mapped in-offsets do not span [0,m]"
        end;
        Digraph.of_mapped_unchecked ~n ~m ~label_count ~labels ~out_off
          ~out_adj ~in_off ~in_adj)
  in
  ((g, table), offset + total_len)

let check_mapped g =
  if Digraph.backend g = Digraph.Mapped then
    match Digraph.validate g with
    | () -> ()
    | exception Failure msg -> bad "invalid CSR in mapped snapshot: %s" msg

(* ------------------------------------------------------------------ *)
(* Kind dispatch *)

(* 'M' blobs nested at unaligned positions are preceded by zero padding;
   magic never starts with '\000', so one byte disambiguates. *)
let skip_pad s pos =
  if pos < String.length s && String.get s pos = '\000' then align8 pos else pos

let of_any_blob s pos =
  let pos = skip_pad s pos in
  need s pos 8 "header";
  match String.get s (pos + 4) with
  | 'G' -> of_binary_substring s pos
  | 'M' -> of_mapped_substring s pos
  | c -> bad "unknown snapshot kind '%c'" c

(* The file-side counterpart of [of_any_blob], for top-level and nested
   blobs alike: an 8-aligned 'M' blob maps in place when [mmap] is set,
   reading only its header and name table; anything else is read from
   [pos] to the end of the file and parsed. *)
let read_blob ?(mmap = false) path pos =
  In_channel.with_open_bin path (fun ic ->
      let len = Int64.to_int (In_channel.length ic) in
      let read pos k =
        In_channel.seek ic (Int64.of_int pos);
        really_input_string ic (Mono.imax 0 (Mono.imin k (len - pos)))
      in
      let pos = if read pos 1 = "\000" then align8 pos else pos in
      let head = read pos 5 in
      if mmap && pos land 7 = 0 && String.length head = 5 && head.[4] = 'M'
      then map_mapped ~offset:pos path
      else
        let r, stop = of_any_blob (read pos len) 0 in
        (r, pos + stop))

let add_any_blob buf ?labels ~(format : Digraph.backend) g =
  match format with
  | Digraph.Flat -> add_graph_blob buf ?labels g
  | Digraph.Mapped -> add_mapped_blob buf ?labels g

let to_snapshot_string ?labels ?(format = Digraph.Flat) g =
  let buf = Buffer.create (32 + (12 * Digraph.n g) + (4 * Digraph.m g)) in
  add_any_blob buf ?labels ~format g;
  Buffer.contents buf

let of_binary_string s = fst (of_any_blob s 0)

let save_binary ?labels ?format path g =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_snapshot_string ?labels ?format g))

let sniff path =
  In_channel.with_open_bin path (fun ic ->
      match In_channel.really_input_string ic 5 with
      | Some head when String.sub head 0 4 = magic -> Some head.[4]
      | _ -> None)

let load ?mmap path =
  match sniff path with
  | Some _ -> fst (read_blob ?mmap path 0)
  | None -> of_string (In_channel.with_open_bin path In_channel.input_all)

let to_dot ?labels ?(name = "g") ?cluster g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" name);
  Buffer.add_string buf "  node [shape=circle fontsize=10];\n";
  let label_name l =
    match labels with
    | Some t -> (try Label_table.name t l with Not_found -> Printf.sprintf "l%d" l)
    | None -> Printf.sprintf "l%d" l
  in
  let emit_node v indent =
    Buffer.add_string buf
      (Printf.sprintf "%sn%d [label=\"%d:%s\"];\n" indent v v
         (label_name (Digraph.label g v)))
  in
  (match cluster with
  | None -> for v = 0 to Digraph.n g - 1 do emit_node v "  " done
  | Some c ->
      if Array.length c <> Digraph.n g then
        invalid_arg "Graph_io.to_dot: cluster array length mismatch";
      let groups = Mono.Itbl.create 16 in
      Array.iteri
        (fun v k ->
          Mono.Itbl.replace groups k
            (v :: Option.value (Mono.Itbl.find_opt groups k) ~default:[]))
        c;
      Mono.Itbl.iter
        (fun k members ->
          Buffer.add_string buf
            (Printf.sprintf "  subgraph cluster_%d {\n    label=\"%d\";\n" k k);
          List.iter (fun v -> emit_node v "    ") members;
          Buffer.add_string buf "  }\n")
        groups);
  Digraph.iter_edges g (fun u v ->
      Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" u v));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let save ?labels path g =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string ?labels g))
