exception Parse_error of int * string

let bad fmt = Format.kasprintf (fun s -> raise (Parse_error (0, s))) fmt

(* Version 2 allows the GRAIL condensation to be embedded as either
   Graph_io snapshot kind ('G' or 'M'), 8-byte aligned when 'M'; version-1
   snapshots (always 'G') still load. *)
let binary_version = 2

let tag_of_backend = function
  | Reach_index.Tree _ -> 0
  | Reach_index.Hop _ -> 1
  | Reach_index.Grl _ -> 2

let to_binary_string ?(graph_format = Digraph.Flat) t =
  let graph_n = Reach_index.indexed_n t in
  let buf = Buffer.create (256 + (8 * graph_n)) in
  Buffer.add_string buf "QPGC";
  Buffer.add_char buf 'I';
  Buffer.add_char buf (Char.chr binary_version);
  Buffer.add_char buf '\000';
  Buffer.add_char buf '\000';
  Buffer.add_char buf (Char.chr (tag_of_backend (Reach_index.backend t)));
  let node_map = Reach_index.node_map t in
  Buffer.add_char buf (match node_map with None -> '\000' | Some _ -> '\001');
  Buffer.add_int64_le buf (Int64.of_int graph_n);
  (match node_map with
  | None -> ()
  | Some m ->
      Buffer.add_int64_le buf (Int64.of_int (Array.length m));
      Array.iter (fun h -> Buffer.add_int32_le buf (Int32.of_int h)) m);
  let self_loops = Reach_index.self_loops t in
  Buffer.add_int64_le buf (Int64.of_int (Bitset.cardinal self_loops));
  for u = 0 to graph_n - 1 do
    if Bitset.mem self_loops u then Buffer.add_int32_le buf (Int32.of_int u)
  done;
  let add_i32_array a =
    Array.iter (fun x -> Buffer.add_int32_le buf (Int32.of_int x)) a
  in
  (match Reach_index.backend t with
  | Reach_index.Tree tc ->
      let post = Tree_cover.post tc and intervals = Tree_cover.intervals tc in
      Buffer.add_int64_le buf (Int64.of_int (Array.length post));
      add_i32_array (Tree_cover.comp tc);
      add_i32_array post;
      Array.iter
        (fun ivs -> Buffer.add_int32_le buf (Int32.of_int (Array.length ivs)))
        intervals;
      Array.iter
        (fun ivs ->
          Array.iter
            (fun (lo, hi) ->
              Buffer.add_int32_le buf (Int32.of_int lo);
              Buffer.add_int32_le buf (Int32.of_int hi))
            ivs)
        intervals
  | Reach_index.Hop th ->
      let lout, lin = Two_hop.labels th in
      let add_labels side =
        Array.iter
          (fun l ->
            Buffer.add_int32_le buf (Int32.of_int (Array.length l));
            add_i32_array l)
          side
      in
      add_labels lout;
      add_labels lin
  | Reach_index.Grl gl ->
      add_i32_array (Grail.comp gl);
      (* [add_any_blob] zero-pads 'M' blobs to the next multiple of 8 of
         the buffer length; the buffer lands at file offset 0, so the
         blob's int64 sections are file-aligned and mappable in place. *)
      Graph_io.add_any_blob buf ~format:graph_format (Grail.cond gl);
      let intervals = Grail.intervals gl in
      Buffer.add_int64_le buf (Int64.of_int (Array.length intervals));
      Array.iter
        (fun iv ->
          Array.iter
            (fun (lo, post) ->
              Buffer.add_int32_le buf (Int32.of_int lo);
              Buffer.add_int32_le buf (Int32.of_int post))
            iv)
        intervals);
  Buffer.contents buf

(* All readers bounds-check before touching the payload, and counts are
   validated before the allocation they size, so corrupt input fails with
   Parse_error rather than a crash or an absurd allocation. *)

let rd_u8 s pos what =
  if !pos >= String.length s then bad "index snapshot truncated reading %s" what;
  let v = Char.code s.[!pos] in
  incr pos;
  v

let rd_i64 s pos what =
  if !pos + 8 > String.length s then
    bad "index snapshot truncated reading %s" what;
  let v = Int64.to_int (String.get_int64_le s !pos) in
  pos := !pos + 8;
  v

let rd_i32 s pos what =
  if !pos + 4 > String.length s then
    bad "index snapshot truncated reading %s" what;
  let v = Int32.to_int (String.get_int32_le s !pos) in
  pos := !pos + 4;
  v

let rd_i32_array s pos n what =
  if n < 0 then bad "negative %s count" what;
  if n > (String.length s - !pos) / 4 then
    bad "index snapshot truncated reading %s" what;
  Array.init n (fun i -> Int32.to_int (String.get_int32_le s (!pos + (4 * i))))
  |> fun a ->
  pos := !pos + (4 * n);
  a

(* [blob pos] reads the GRAIL cond blob nested at [pos] and returns the
   position past it: from [s] itself, or from the file [s] was read from
   so that an 'M' blob can map in place (snapshots are written from
   offset 0, so positions in [s] are file offsets). *)
let parse ~blob s =
  if String.length s < 8 || String.sub s 0 4 <> "QPGC" then
    bad "bad magic: not a qpgc binary snapshot";
  if s.[4] <> 'I' then bad "wrong snapshot kind '%c' (expected 'I')" s.[4];
  let version = Char.code s.[5] in
  if version < 1 || version > binary_version then
    bad "unsupported index snapshot version %d" version;
  let pos = ref 8 in
  let tag = rd_u8 s pos "algorithm tag" in
  if tag > 2 then bad "unknown index algorithm tag %d" tag;
  let has_map = rd_u8 s pos "node-map flag" in
  if has_map > 1 then bad "bad node-map flag %d" has_map;
  let graph_n = rd_i64 s pos "indexed node count" in
  if graph_n < 0 then bad "negative indexed node count";
  let node_map =
    if has_map = 0 then None
    else begin
      let orig_n = rd_i64 s pos "original node count" in
      Some (rd_i32_array s pos orig_n "node map")
    end
  in
  let loop_count = rd_i64 s pos "self-loop count" in
  if loop_count < 0 || loop_count > graph_n then
    bad "self-loop count %d out of range" loop_count;
  let self_loops = Bitset.create graph_n in
  let prev = ref (-1) in
  for _ = 1 to loop_count do
    let u = rd_i32 s pos "self-loop id" in
    if u <= !prev || u >= graph_n then
      bad "self-loop ids must be strictly ascending and in range (got %d)" u;
    prev := u;
    Bitset.add self_loops u
  done;
  let backend =
    match tag with
    | 0 ->
        let k = rd_i64 s pos "condensation size" in
        if k < 0 then bad "negative condensation size";
        let comp = rd_i32_array s pos graph_n "component map" in
        let post = rd_i32_array s pos k "post ranks" in
        let counts = rd_i32_array s pos k "interval counts" in
        let intervals =
          Array.map
            (fun c ->
              if c < 0 then bad "negative interval count";
              if !pos + (8 * c) > String.length s then
                bad "index snapshot truncated reading intervals";
              Array.init c (fun i ->
                  let lo = Int32.to_int (String.get_int32_le s (!pos + (8 * i)))
                  and hi =
                    Int32.to_int (String.get_int32_le s (!pos + (8 * i) + 4))
                  in
                  (lo, hi))
              |> fun a ->
              pos := !pos + (8 * c);
              a)
            counts
        in
        (match Tree_cover.of_parts ~comp ~post ~intervals with
        | tc -> Reach_index.Tree tc
        | exception Invalid_argument msg -> bad "%s" msg)
    | 1 ->
        let rd_labels what =
          Array.init graph_n (fun _ ->
              let len = rd_i32 s pos what in
              let l = rd_i32_array s pos len what in
              Array.iter
                (fun h ->
                  if h < 0 || h >= graph_n then
                    bad "%s entry %d out of range" what h)
                l;
              l)
        in
        let lout = rd_labels "out-labels" in
        let lin = rd_labels "in-labels" in
        (match Two_hop.of_labels ~lout ~lin with
        | th -> Reach_index.Hop th
        | exception Invalid_argument msg -> bad "%s" msg)
    | _ ->
        let comp = rd_i32_array s pos graph_n "component map" in
        let cond =
          match blob !pos with
          | (cond, _), next ->
              pos := next;
              cond
          | exception Graph_io.Parse_error (line, msg) ->
              raise (Parse_error (line, msg))
        in
        let k = rd_i64 s pos "traversal count" in
        if k <= 0 || k > 1024 then bad "traversal count %d out of range" k;
        let cn = Digraph.n cond in
        let intervals =
          Array.init k (fun _ ->
              if !pos + (8 * cn) > String.length s then
                bad "index snapshot truncated reading traversal intervals";
              Array.init cn (fun i ->
                  let lo = Int32.to_int (String.get_int32_le s (!pos + (8 * i)))
                  and post =
                    Int32.to_int (String.get_int32_le s (!pos + (8 * i) + 4))
                  in
                  (lo, post))
              |> fun a ->
              pos := !pos + (8 * cn);
              a)
        in
        (match Grail.of_parts ~comp ~cond ~intervals with
        | gl -> Reach_index.Grl gl
        | exception Invalid_argument msg -> bad "%s" msg)
  in
  if !pos <> String.length s then
    bad "trailing %d bytes after index snapshot" (String.length s - !pos);
  match Reach_index.v ~graph_n ?node_map ~self_loops ~backend () with
  | t -> t
  | exception Invalid_argument msg -> bad "%s" msg

let of_binary_string s = parse ~blob:(Graph_io.of_any_blob s) s

let save ?graph_format path t =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_binary_string ?graph_format t))

let load ?(mmap = false) path =
  let s = In_channel.with_open_bin path In_channel.input_all in
  parse ~blob:(Graph_io.read_blob ~mmap path) s

let check_mapped t =
  match Reach_index.backend t with
  | Reach_index.Grl gl -> (
      try Graph_io.check_mapped (Grail.cond gl)
      with Graph_io.Parse_error (line, msg) -> raise (Parse_error (line, msg)))
  | Reach_index.Tree _ | Reach_index.Hop _ -> ()
