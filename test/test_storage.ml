(* Storage-backend tests: the 'G' (flat) and 'M' (mmap) snapshot
   formats, fail-closed loading of corrupt snapshots, and the
   backend-equivalence properties — every query-visible accessor must
   behave identically on the flat and mmap backends, under 1, 2 and 4
   domains. *)

let tmp_counter = ref 0

let with_tmp_file f =
  incr tmp_counter;
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "qpgc_storage_%d_%d.bin" (Unix.getpid ()) !tmp_counter)
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* A small fixed graph with named labels, used by the deterministic
   corruption cases. *)
let sample () =
  let table = Graph_io.Label_table.create () in
  let a = Graph_io.Label_table.intern table "author" in
  let p = Graph_io.Label_table.intern table "paper" in
  let g =
    Digraph.make ~n:6
      ~labels:[| a; a; p; p; p; a |]
      [ (0, 2); (0, 3); (1, 2); (2, 4); (3, 4); (4, 5); (5, 0); (5, 5) ]
  in
  (g, table)

let expect_parse_error what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Parse_error" what
  | exception Graph_io.Parse_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Format round-trips *)

let format_of_backend = function Digraph.Flat -> "flat" | Digraph.Mapped -> "mmap"

let roundtrip_prop fmt g =
  let s = Graph_io.to_snapshot_string ~format:fmt g in
  let g', _ = Graph_io.of_binary_string s in
  Digraph.validate g';
  if not (Digraph.equal g g') then
    QCheck2.Test.fail_reportf "%s roundtrip changed the graph"
      (format_of_backend fmt);
  (* Canonicality: re-serialising the loaded graph — whatever backend it
     landed on — reproduces the bytes. *)
  let s2 = Graph_io.to_snapshot_string ~format:fmt g' in
  if not (String.equal s s2) then
    QCheck2.Test.fail_reportf "%s serialisation not canonical"
      (format_of_backend fmt);
  true

let truncation_prop fmt g =
  let s = Graph_io.to_snapshot_string ~format:fmt g in
  for len = 0 to String.length s - 1 do
    match Graph_io.of_binary_string (String.sub s 0 len) with
    | _ ->
        QCheck2.Test.fail_reportf "%s: truncation to %d bytes accepted"
          (format_of_backend fmt) len
    | exception Graph_io.Parse_error _ -> ()
  done;
  true

let mmap_load_prop g =
  with_tmp_file (fun path ->
      let table = Graph_io.Label_table.create () in
      ignore (Graph_io.Label_table.intern table "alpha");
      Graph_io.save_binary ~labels:table ~format:Digraph.Mapped path g;
      (* Eager load: flat backend. *)
      let ge, te = Graph_io.load path in
      if Digraph.backend ge <> Digraph.Flat then
        QCheck2.Test.fail_report "eager 'M' load should land on flat";
      (* Zero-copy load: mapped backend, same graph. *)
      let gm, tm = Graph_io.load ~mmap:true path in
      if Digraph.backend gm <> Digraph.Mapped then
        QCheck2.Test.fail_report "mmap load should land on mapped backend";
      Digraph.validate gm;
      if not (Digraph.equal g ge && Digraph.equal g gm) then
        QCheck2.Test.fail_report "mmap roundtrip changed the graph";
      if
        Graph_io.Label_table.count te <> 1
        || Graph_io.Label_table.count tm <> 1
        || Graph_io.Label_table.name tm 0 <> "alpha"
      then QCheck2.Test.fail_report "label table lost by mmap roundtrip";
      true)

(* ------------------------------------------------------------------ *)
(* Deterministic corruption cases *)

let set_byte s i c =
  let b = Bytes.of_string s in
  Bytes.set b i c;
  Bytes.to_string b

let mapped_corruption () =
  let g, table = sample () in
  let s = Graph_io.to_snapshot_string ~labels:table ~format:Digraph.Mapped g in
  expect_parse_error "kind" (fun () ->
      Graph_io.of_binary_string (set_byte s 4 'Z'));
  expect_parse_error "version" (fun () ->
      Graph_io.of_binary_string (set_byte s 5 '\009'));
  expect_parse_error "node count" (fun () ->
      Graph_io.of_binary_string (set_byte s 8 '\007'));
  expect_parse_error "edge count" (fun () ->
      Graph_io.of_binary_string (set_byte s 16 '\200'));
  expect_parse_error "label count" (fun () ->
      Graph_io.of_binary_string (set_byte s 24 '\000'));
  expect_parse_error "blob length" (fun () ->
      Graph_io.of_binary_string (set_byte s 40 '\001'));
  (* First out-offset entry made nonzero. *)
  expect_parse_error "offsets" (fun () ->
      Graph_io.of_binary_string (set_byte s 48 '\002'));
  (* An adjacency entry pushed out of sorted order. *)
  let adj0 = 48 + (8 * 7) in
  expect_parse_error "adjacency" (fun () ->
      Graph_io.of_binary_string (set_byte s adj0 '\005'));
  (* An in-mirror entry that no longer matches the out-CSR. *)
  let iadj0 = 48 + (8 * 7) + (8 * 8) + (8 * 7) in
  expect_parse_error "in-mirror" (fun () ->
      Graph_io.of_binary_string (set_byte s iadj0 '\004'));
  (* The same corruptions must also be rejected on the mmap path (O(1)
     header checks catch the structural ones; deep validation the rest). *)
  with_tmp_file (fun path ->
      write_file path (set_byte s 40 '\001');
      expect_parse_error "mmap blob length" (fun () ->
          Graph_io.load ~mmap:true path));
  with_tmp_file (fun path ->
      write_file path (set_byte s 48 '\002');
      expect_parse_error "mmap offsets" (fun () ->
          Graph_io.load ~mmap:true path));
  with_tmp_file (fun path ->
      write_file path (set_byte s adj0 '\005');
      let gm, _ = Graph_io.load ~mmap:true path in
      match Digraph.validate gm with
      | () -> Alcotest.fail "mmap deep validation accepted corrupt adjacency"
      | exception Failure _ -> ())

(* A node count of 2^60 + n makes 8 * (n + 1) wrap around to its
   original value; the bounds checks must not be fooled by it. *)
let count_overflow () =
  let g, table = sample () in
  List.iter
    (fun fmt ->
      let s = Graph_io.to_snapshot_string ~labels:table ~format:fmt g in
      let s = set_byte s 15 '\016' in
      expect_parse_error "eager" (fun () -> Graph_io.of_binary_string s);
      with_tmp_file (fun path ->
          write_file path s;
          expect_parse_error "file" (fun () -> Graph_io.load ~mmap:true path)))
    [ Digraph.Flat; Digraph.Mapped ]

(* A corrupt label-count field passes the mapped open's O(1) checks
   but not validation: [label_count] must be 1 + the largest label. *)
let mapped_label_count () =
  let g, table = sample () in
  let s = Graph_io.to_snapshot_string ~labels:table ~format:Digraph.Mapped g in
  let b = Bytes.of_string s in
  Bytes.set_int64_le b 24 (Int64.shift_left 1L 40);
  with_tmp_file (fun path ->
      write_file path (Bytes.to_string b);
      let gm, _ = Graph_io.load ~mmap:true path in
      Testutil.check_int "header trusted by the open" (1 lsl 40)
        (Digraph.label_count gm);
      (match Digraph.validate gm with
      | () -> Alcotest.fail "validate accepted label_count 2^40"
      | exception Failure _ -> ());
      expect_parse_error "check_mapped" (fun () -> Graph_io.check_mapped gm));
  expect_parse_error "eager" (fun () -> Graph_io.of_binary_string (Bytes.to_string b))

(* The varint kind 'V' is gone: a 'C' or 'I' file whose nested blob
   claims it is rejected with a typed parse error, eagerly and mapped. *)
let varint_snapshot () =
  let g, _ = sample () in
  let expect_v what parse =
    match parse () with
    | _ -> Alcotest.failf "%s: 'V' blob accepted" what
    | exception (Compressed_io.Parse_error (_, msg) | Reach_index_io.Parse_error (_, msg))
      ->
        Alcotest.(check string) what "unknown snapshot kind 'V'" msg
  in
  (* The first nested "QPGC" after the outer header; its kind byte set
     to 'V'. *)
  let nested_v s =
    let rec find i = if String.sub s i 4 = "QPGC" then i else find (i + 1) in
    set_byte s (find 8 + 4) 'V'
  in
  let c = nested_v (Compressed_io.to_binary_string (Compress_reach.compress g)) in
  let i =
    nested_v
      (Reach_index_io.to_binary_string
         (Reach_index.build ~algorithm:Reach_index.Grail g))
  in
  expect_v "C string" (fun () -> Compressed_io.of_binary_string c);
  expect_v "I string" (fun () -> Reach_index_io.of_binary_string i);
  List.iter
    (fun mmap ->
      with_tmp_file (fun path ->
          write_file path c;
          expect_v "C file" (fun () -> Compressed_io.load ~mmap path));
      with_tmp_file (fun path ->
          write_file path i;
          expect_v "I file" (fun () -> Reach_index_io.load ~mmap path)))
    [ false; true ]

(* Every single-byte change to a 'G' or 'M' snapshot either fails with
   [Parse_error] or yields a graph that validates and can be traversed
   from every node — through the eager parser and through the mapped open
   followed by [check_mapped]. *)
let accepts_safely what g =
  (match Digraph.validate g with
  | () -> ()
  | exception Failure msg ->
      QCheck2.Test.fail_reportf "%s: accepted an invalid graph: %s" what msg);
  for v = 0 to Digraph.n g - 1 do
    match Traversal.descendants g v with
    | _ -> ()
    | exception e ->
        QCheck2.Test.fail_reportf "%s: traversal from %d raised %s" what v
          (Printexc.to_string e)
  done

let single_byte_prop fmt (g, mask) =
  let table = Graph_io.Label_table.create () in
  for l = 0 to Digraph.label_count g - 1 do
    ignore (Graph_io.Label_table.intern table (Printf.sprintf "label%d" l))
  done;
  let s = Graph_io.to_snapshot_string ~labels:table ~format:fmt g in
  for i = 0 to String.length s - 1 do
    let s' = set_byte s i (Char.chr (Char.code s.[i] lxor mask)) in
    let what path = Printf.sprintf "%s %s, byte %d ^ %d" (format_of_backend fmt) path i mask in
    let check path load =
      match load () with
      | g' -> accepts_safely (what path) g'
      | exception Graph_io.Parse_error _ -> ()
      | exception e ->
          QCheck2.Test.fail_reportf "%s: raised %s" (what path) (Printexc.to_string e)
    in
    check "eager" (fun () -> fst (Graph_io.of_binary_string s'));
    with_tmp_file (fun path ->
        write_file path s';
        check "mapped" (fun () ->
            let gm, _ = Graph_io.load ~mmap:true path in
            Graph_io.check_mapped gm;
            gm))
  done;
  true

(* ------------------------------------------------------------------ *)
(* Backend equivalence *)

(* The temp file is unlinked after the load: the mapping stays valid on
   POSIX. *)
let mapped_of g =
  with_tmp_file (fun path ->
      Graph_io.save_binary ~format:Digraph.Mapped path g;
      fst (Graph_io.load ~mmap:true path))

let backends_of g = [ ("flat", Digraph.to_flat g); ("mmap", mapped_of g) ]

let slices_equal (base_a, start_a, len_a) (base_b, start_b, len_b) =
  len_a = len_b
  && (let rec go i =
        i >= len_a || (base_a.(start_a + i) = base_b.(start_b + i) && go (i + 1))
      in
      go 0)

let accessor_equiv_prop g =
  let n = Digraph.n g in
  let reference = Digraph.to_flat g in
  List.iter
    (fun (name, gb) ->
      if Digraph.backend_name gb <> name then
        QCheck2.Test.fail_reportf "expected %s backend, got %s" name
          (Digraph.backend_name gb);
      Digraph.validate gb;
      if Digraph.label_count gb <> Digraph.label_count reference then
        QCheck2.Test.fail_reportf "%s: label_count differs" name;
      for v = 0 to n - 1 do
        if Digraph.label gb v <> Digraph.label reference v then
          QCheck2.Test.fail_reportf "%s: label %d differs" name v;
        if Digraph.out_degree gb v <> Digraph.out_degree reference v then
          QCheck2.Test.fail_reportf "%s: out_degree %d differs" name v;
        if Digraph.in_degree gb v <> Digraph.in_degree reference v then
          QCheck2.Test.fail_reportf "%s: in_degree %d differs" name v;
        (* succ_slice on the backend is decoded into scratch; the
           reference slice lives in the flat array, so comparing the two
           views directly is safe. *)
        if not (slices_equal (Digraph.succ_slice gb v) (Digraph.succ_slice reference v))
        then QCheck2.Test.fail_reportf "%s: succ_slice %d differs" name v;
        if not (slices_equal (Digraph.pred_slice gb v) (Digraph.pred_slice reference v))
        then QCheck2.Test.fail_reportf "%s: pred_slice %d differs" name v;
        let via_iter = ref [] in
        Digraph.iter_succ gb v (fun w -> via_iter := w :: !via_iter);
        let expected =
          List.rev (Digraph.fold_succ reference v (fun acc w -> w :: acc) [])
        in
        if List.rev !via_iter <> expected then
          QCheck2.Test.fail_reportf "%s: iter_succ %d differs" name v;
        for w = 0 to n - 1 do
          if Digraph.mem_edge gb v w <> Digraph.mem_edge reference v w then
            QCheck2.Test.fail_reportf "%s: mem_edge (%d,%d) differs" name v w
        done
      done;
      (* Reverse shares the sides: spot-check it too. *)
      let rb = Digraph.reverse gb and rr = Digraph.reverse reference in
      for v = 0 to n - 1 do
        if Digraph.out_degree rb v <> Digraph.out_degree rr v then
          QCheck2.Test.fail_reportf "%s: reverse out_degree %d differs" name v
      done)
    (backends_of g);
  true

let bfs_equiv_prop g =
  let n = Digraph.n g in
  let reference = Digraph.to_flat g in
  List.iter
    (fun (name, gb) ->
      for s = 0 to n - 1 do
        for t = 0 to n - 1 do
          if Traversal.bfs_reaches gb s t <> Traversal.bfs_reaches reference s t
          then QCheck2.Test.fail_reportf "%s: BFS (%d,%d) differs" name s t;
          if
            Traversal.bibfs_reaches gb s t
            <> Traversal.bibfs_reaches reference s t
          then QCheck2.Test.fail_reportf "%s: biBFS (%d,%d) differs" name s t
        done
      done)
    (backends_of g);
  true

(* compressR must produce bit-identical results (same hypernode ids, same
   compressed graph) on every backend, under 1, 2 and 4 domains. *)
let compress_equiv_prop (g, domains) =
  let node_map c = Array.init (Digraph.n g) (Compressed.hypernode c) in
  let reference = Compress_reach.compress (Digraph.to_flat g) in
  Pool.with_pool ~domains (fun pool ->
      List.iter
        (fun (name, gb) ->
          let c = Compress_reach.compress ~pool gb in
          if not (Digraph.equal (Compressed.graph c) (Compressed.graph reference))
          then
            QCheck2.Test.fail_reportf "%s/%d domains: compressed graph differs"
              name domains;
          if node_map c <> node_map reference then
            QCheck2.Test.fail_reportf "%s/%d domains: node map differs" name
              domains)
        (backends_of g));
  true

(* Parallel slice copies: concurrent succ_slice calls on a mapped graph
   from several domains must each see their own scratch buffer. *)
let parallel_scratch_prop (g, domains) =
  let n = Digraph.n g in
  if n = 0 then true
  else begin
    let gv = mapped_of g in
    let reference = Digraph.to_flat g in
    let expected =
      Array.init n (fun v ->
          let base, start, len = Digraph.succ_slice reference v in
          Array.sub base start len)
    in
    let rounds = 64 in
    let bad = Atomic.make (-1) in
    Pool.with_pool ~domains (fun pool ->
        Pool.parallel_for pool ~n:(rounds * n) (fun i ->
            let v = i mod n in
            let base, start, len = Digraph.succ_slice gv v in
            let ok =
              len = Array.length expected.(v)
              && (let rec go j =
                    j >= len
                    || (base.(start + j) = expected.(v).(j) && go (j + 1))
                  in
                  go 0)
            in
            if not ok then Atomic.set bad v));
    if Atomic.get bad >= 0 then
      QCheck2.Test.fail_reportf "concurrent succ_slice corrupted node %d"
        (Atomic.get bad);
    true
  end

(* ------------------------------------------------------------------ *)

let arb_graph = Testutil.arbitrary_digraph ()
let arb_bigger = Testutil.arbitrary_digraph ~max_n:40 ~max_labels:5 ()

let arb_graph_domains =
  let gen =
    let open QCheck2.Gen in
    let* g = Testutil.digraph_gen ~max_n:24 () in
    let* domains = QCheck2.Gen.oneofl [ 1; 2; 4 ] in
    pure (g, domains)
  in
  (gen, fun (g, d) -> Printf.sprintf "%s domains=%d" (Testutil.digraph_print g) d)

let arb_graph_mask =
  let gen =
    let open QCheck2.Gen in
    let* g = Testutil.digraph_gen ~max_n:8 () in
    let* mask = int_range 1 255 in
    pure (g, mask)
  in
  (gen, fun (g, k) -> Printf.sprintf "%s mask=%d" (Testutil.digraph_print g) k)

let format_props =
  [
    Testutil.qtest ~count:100 "mmap snapshot roundtrip is exact and canonical"
      arb_bigger
      (roundtrip_prop Digraph.Mapped);
    Testutil.qtest ~count:100 "flat snapshot roundtrip is exact and canonical"
      arb_bigger
      (roundtrip_prop Digraph.Flat);
    Testutil.qtest ~count:25 "every mmap snapshot prefix is rejected" arb_graph
      (truncation_prop Digraph.Mapped);
    Testutil.qtest ~count:60 "mmap file load (eager and zero-copy)" arb_bigger
      mmap_load_prop;
    Testutil.qtest ~count:20 "single-byte flat corruption fails closed"
      arb_graph_mask
      (single_byte_prop Digraph.Flat);
    Testutil.qtest ~count:20 "single-byte mmap corruption fails closed"
      arb_graph_mask
      (single_byte_prop Digraph.Mapped);
  ]

let equivalence_props =
  [
    Testutil.qtest ~count:120 "accessors agree across backends" arb_bigger
      accessor_equiv_prop;
    Testutil.qtest ~count:40 "BFS and biBFS agree across backends" arb_graph
      bfs_equiv_prop;
    Testutil.qtest ~count:40 "compressR bit-identical across backends and domains"
      arb_graph_domains compress_equiv_prop;
    Testutil.qtest ~count:20 "parallel slice decode is domain-safe"
      arb_graph_domains parallel_scratch_prop;
  ]

let () =
  Alcotest.run "storage"
    [
      ( "corruption",
        [
          Alcotest.test_case "mapped snapshot" `Quick mapped_corruption;
          Alcotest.test_case "mapped label count" `Quick mapped_label_count;
          Alcotest.test_case "count overflow" `Quick count_overflow;
          Alcotest.test_case "varint snapshot" `Quick varint_snapshot;
        ] );
      ("format_props", format_props);
      ("equivalence", equivalence_props);
    ]
