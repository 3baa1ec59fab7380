(* qpgc — query preserving graph compression, command line front end.

   Subcommands:
     generate   materialise a synthetic dataset into a graph file
     stats      structural statistics and compression ratios of a graph
     compress   write the compressed graph (+ node map / full compression)
     index      build a reachability index over the compression and save it
     query      answer a reachability query via the compression
     cquery     answer from a saved compression, no original graph needed
     match      evaluate a pattern query via the compression
     rpq        evaluate a regular path query via the compression
     workload   run a query workload over G and Gr, verify and time
     dot        Graphviz export, optionally clustered by hypernode
     datasets   list the built-in dataset stand-ins
     serve      long-lived query daemon over the binary wire protocol
     loadgen    drive a running daemon and report qps / latency percentiles
     top        poll a running daemon and render a live terminal view *)

open Cmdliner

(* Shared --domains flag: sizes the process-wide pool the parallel kernels
   draw from.  Applied by the subcommands that run compression or batch
   query kernels. *)
let domains_arg =
  Arg.(
    value
    & opt int (Pool.recommended ())
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Worker domains for the parallel kernels (default: the \
           recommended domain count, capped at 8; $(b,1) forces the \
           sequential path).")

let setup_domains n =
  if n < 1 then begin
    Printf.eprintf "--domains must be >= 1\n";
    exit 1
  end;
  Pool.set_default_domains n

(* Shared observability flags, accepted by every subcommand.  Exports are
   registered [at_exit] so they capture whatever ran, including early
   [exit 1] paths; the stdlib's flush handler was registered first and
   therefore runs last, so the output is flushed. *)
let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record spans around the instrumented kernel phases and write \
           them to $(docv) as Chrome trace_event JSON on exit (load it at \
           $(b,ui.perfetto.dev)).")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Record kernel counters and histograms (per-domain, merged at \
           the end) and print the table on exit.")

let trace_gc_arg =
  Arg.(
    value & flag
    & info [ "trace-gc" ]
        ~doc:
          "With $(b,--trace): also record GC deltas (minor/promoted words, \
           major collections) per span.")

let setup_obs trace metrics trace_gc =
  (match trace with
  | Some file ->
      Obs.set_tracing true;
      Obs.set_gc_sampling trace_gc;
      at_exit (fun () ->
          try Obs.write_trace file
          with Sys_error e -> Printf.eprintf "--trace: %s\n" e)
  | None -> ());
  if metrics then begin
    Obs.set_metrics true;
    at_exit (fun () -> print_string (Obs.metrics_table ()))
  end

let obs_term = Term.(const setup_obs $ trace_arg $ metrics_arg $ trace_gc_arg)

(* [Graph_io.load] sniffs the snapshot magic, so every subcommand accepts
   text and binary graph files interchangeably.  A graph that opened on
   the mapped backend is validated once before use. *)
let read_graph ?(mmap = false) path =
  try
    let ((g, _) as loaded) = Graph_io.load ~mmap path in
    Graph_io.check_mapped g;
    loaded
  with
  | Graph_io.Parse_error (line, msg) ->
      Printf.eprintf "%s:%d: %s\n" path line msg;
      exit 1
  | Sys_error e ->
      Printf.eprintf "%s\n" e;
      exit 1

let binary_arg =
  Arg.(
    value & flag
    & info [ "binary" ]
        ~doc:
          "Write outputs as binary snapshots instead of text (loaded \
           transparently by every subcommand; see DESIGN.md for the \
           format).")

(* Shared --mmap flag: zero-copy loading of mapped ('M') snapshots,
   including graph blobs nested inside 'C' and 'I' snapshots. *)
let mmap_arg =
  Arg.(
    value & flag
    & info [ "mmap" ]
        ~doc:
          "Open mapped ('M') binary snapshots zero-copy: the CSR sections \
           become views over the file pages instead of being read onto the \
           heap, so opening is O(1) in the graph size.  Other formats load \
           eagerly as usual.")

(* The storage backends a binary output can target, shared by --adj and
   convert --format. *)
let backends = [ ("flat", Digraph.Flat); ("mmap", Digraph.Mapped) ]

(* Shared --adj flag: the adjacency encoding of binary outputs. *)
let adj_arg =
  Arg.(
    value
    & opt (Arg.enum backends) Digraph.Flat
    & info [ "adj" ] ~docv:"ENC"
        ~doc:
          "Adjacency encoding for binary snapshot outputs: $(b,flat) (kind \
           'G', the default) or $(b,mmap) (kind 'M', 8-byte-aligned \
           sections built for zero-copy $(b,--mmap) loading).")

(* ------------------------------------------------------------------ *)
(* generate *)

let generate_cmd =
  let dataset =
    Arg.(
      required
      & opt (some string) None
      & info [ "dataset"; "d" ] ~docv:"NAME"
          ~doc:"Dataset stand-in to generate (see $(b,qpgc datasets)).")
  in
  let nodes =
    Arg.(
      value
      & opt (some int) None
      & info [ "nodes"; "n" ] ~docv:"N" ~doc:"Override the node count.")
  in
  let edges =
    Arg.(
      value
      & opt (some int) None
      & info [ "edges"; "m" ] ~docv:"M" ~doc:"Override the edge count.")
  in
  let seed =
    Arg.(value & opt int 0xC0FFEE & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")
  in
  let output =
    Arg.(
      required
      & opt (some string) None
      & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Output graph file.")
  in
  let run () dataset nodes edges seed output binary adj =
    match Datasets.find dataset with
    | exception Not_found ->
        Printf.eprintf "unknown dataset %S; try `qpgc datasets'\n" dataset;
        exit 1
    | spec ->
        let nodes = Option.value nodes ~default:spec.Datasets.nodes in
        let edges = Option.value edges ~default:spec.Datasets.edges in
        let g = Datasets.generate_scaled ~seed spec ~nodes ~edges in
        if binary then Graph_io.save_binary ~format:adj output g
        else Graph_io.save output g;
        Printf.printf "wrote %s: |V| = %d, |E| = %d, |L| = %d\n" output
          (Digraph.n g) (Digraph.m g) (Digraph.label_count g)
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Materialise a synthetic dataset stand-in.")
    Term.(
      const run $ obs_term $ dataset $ nodes $ edges $ seed $ output
      $ binary_arg $ adj_arg)

(* ------------------------------------------------------------------ *)
(* stats *)

let graph_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"GRAPH" ~doc:"Graph file (see README for the format).")

let stats_cmd =
  let run () domains mmap path =
    setup_domains domains;
    let g, _ = read_graph ~mmap path in
    (* Measure before the stats pass: computing stats may force the dense
       escape-hatch views on the mapped backend, which would count against
       the resident figure. *)
    let mem = Digraph.memory_bytes g in
    Format.printf "%a@." Graph_stats.pp (Graph_stats.compute g);
    let per_edge m =
      if Digraph.m g = 0 then 0.0
      else float_of_int m /. float_of_int (Digraph.m g)
    in
    Printf.printf "storage     : %s backend, %d resident bytes (%.1f bytes/edge)\n"
      (Digraph.backend_name g) mem (per_edge mem);
    (* Resident footprint of the same graph on the heap, so a mapped
       snapshot can be compared without converting files by hand. *)
    if Digraph.backend g <> Digraph.Flat then begin
      let m = Digraph.memory_bytes (Digraph.to_flat g) in
      Printf.printf "  as flat   : %d bytes (%.1f bytes/edge)\n" m (per_edge m)
    end;
    let rc = Compress_reach.compress g in
    Printf.printf "reach Gr    : |Vr| = %d, |Er| = %d  (RCr = %.2f%%)\n"
      (Digraph.n (Compressed.graph rc))
      (Digraph.m (Compressed.graph rc))
      (100. *. Compressed.ratio rc ~original:g);
    let pc = Compress_bisim.compress g in
    Printf.printf "pattern Gr  : |Vr| = %d, |Er| = %d  (PCr = %.2f%%)\n"
      (Digraph.n (Compressed.graph pc))
      (Digraph.m (Compressed.graph pc))
      (100. *. Compressed.ratio pc ~original:g)
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Structural statistics and compression ratios.")
    Term.(const run $ obs_term $ domains_arg $ mmap_arg $ graph_arg)

(* ------------------------------------------------------------------ *)
(* compress *)

let mode_arg =
  let mode = Arg.enum [ ("reach", `Reach); ("pattern", `Pattern) ] in
  Arg.(
    value
    & opt mode `Reach
    & info [ "mode" ] ~docv:"MODE"
        ~doc:"Compression scheme: $(b,reach) or $(b,pattern).")

let compress_cmd =
  let output =
    Arg.(
      required
      & opt (some string) None
      & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Compressed graph file.")
  in
  let map_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "map" ] ~docv:"FILE"
          ~doc:"Also write the node map: one line per node, `node hypernode'.")
  in
  let save_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE"
          ~doc:
            "Write the full compression (Gr + node map) in one file, \
             loadable by $(b,qpgc cquery).")
  in
  let run () domains mmap adj path mode output map_file save_file binary =
    setup_domains domains;
    let g, _ = read_graph ~mmap path in
    let c, dt =
      Obs.time (fun () ->
          match mode with
          | `Reach -> Compress_reach.compress g
          | `Pattern -> Compress_bisim.compress g)
    in
    (if binary then Graph_io.save_binary ?labels:None ~format:adj
     else Graph_io.save ?labels:None)
      output (Compressed.graph c);
    (match save_file with
    | None -> ()
    | Some sf ->
        if binary then Compressed_io.save_binary ~graph_format:adj sf c
        else Compressed_io.save sf c);
    (match map_file with
    | None -> ()
    | Some mf ->
        let oc = open_out mf in
        for v = 0 to Digraph.n g - 1 do
          Printf.fprintf oc "%d %d\n" v (Compressed.hypernode c v)
        done;
        close_out oc);
    Printf.printf "compressed in %.3fs: |V| = %d -> |Vr| = %d, ratio = %.2f%%\n"
      dt (Digraph.n g)
      (Digraph.n (Compressed.graph c))
      (100. *. Compressed.ratio c ~original:g)
  in
  Cmd.v
    (Cmd.info "compress" ~doc:"Compress a graph, preserving a query class.")
    Term.(
      const run $ obs_term $ domains_arg $ mmap_arg $ adj_arg $ graph_arg
      $ mode_arg $ output $ map_file $ save_file $ binary_arg)

(* ------------------------------------------------------------------ *)
(* index: build a reachability index over the compression and save it *)

let algorithm_arg =
  let algo_conv =
    Arg.enum
      (List.map
         (fun a -> (Reach_index.algorithm_name a, a))
         Reach_index.all_algorithms)
  in
  Arg.(
    value
    & opt algo_conv Reach_index.Tree_cover
    & info [ "algorithm"; "a" ] ~docv:"ALGO"
        ~doc:
          "Index algorithm: $(b,tree-cover), $(b,two-hop) or $(b,grail) \
           (default $(b,tree-cover)).")

let load_index ?(mmap = false) path =
  try
    let idx = Reach_index_io.load ~mmap path in
    Reach_index_io.check_mapped idx;
    idx
  with Reach_index_io.Parse_error (line, msg) ->
    Printf.eprintf "%s:%d: %s\n" path line msg;
    exit 1

let index_cmd =
  let output =
    Arg.(
      required
      & opt (some string) None
      & info [ "output"; "o" ] ~docv:"FILE"
          ~doc:"Index snapshot file (kind 'I'), loadable by $(b,--index).")
  in
  let direct =
    Arg.(
      value & flag
      & info [ "direct" ]
          ~doc:
            "Index the graph itself instead of its reach compression \
             (larger index, for comparison).")
  in
  let run () domains mmap adj path algorithm output direct =
    setup_domains domains;
    let g, _ = read_graph ~mmap path in
    let idx, dt =
      Obs.time (fun () ->
          if direct then Reach_index.build ~algorithm g
          else Compress_reach.index ~algorithm (Compress_reach.compress g))
    in
    Reach_index_io.save ~graph_format:adj output idx;
    Printf.printf
      "built %s index in %.3fs: %d node(s) indexed for %d original(s), %d \
       index bytes vs %d CSR bytes\n"
      (Reach_index.algorithm_name (Reach_index.algorithm idx))
      dt
      (Reach_index.indexed_n idx)
      (Reach_index.original_n idx)
      (Reach_index.memory_bytes idx)
      (Digraph.memory_bytes g)
  in
  Cmd.v
    (Cmd.info "index"
       ~doc:
         "Compress a graph, build a reachability index over the \
          compression, and save it.")
    Term.(
      const run $ obs_term $ domains_arg $ mmap_arg $ adj_arg $ graph_arg
      $ algorithm_arg $ output $ direct)

(* ------------------------------------------------------------------ *)
(* query *)

let planner_arg =
  Arg.(
    value & flag
    & info [ "planner" ]
        ~doc:
          "Route the query through the adaptive planner (prints the \
           planning decision).")

let index_file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "index" ] ~docv:"FILE"
        ~doc:"Answer through a saved index snapshot ($(b,qpgc index)).")

let query_cmd =
  let source =
    Arg.(required & pos 1 (some int) None & info [] ~docv:"SOURCE" ~doc:"Source node.")
  in
  let target =
    Arg.(required & pos 2 (some int) None & info [] ~docv:"TARGET" ~doc:"Target node.")
  in
  let server_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "server" ] ~docv:"SOCKET"
          ~doc:
            "Ask a running $(b,qpgc serve) daemon on this unix socket \
             instead of computing locally (the graph file is still read \
             for id validation and the BFS cross-check).")
  in
  let run () domains mmap path source target planner index_file server =
    setup_domains domains;
    let g, _ = read_graph ~mmap path in
    let n = Digraph.n g in
    if source < 0 || source >= n || target < 0 || target >= n then begin
      Printf.eprintf "nodes must be in [0, %d)\n" n;
      exit 1
    end;
    let index = Option.map (load_index ~mmap) index_file in
    (match index with
    | Some idx when Reach_index.original_n idx <> n ->
        Printf.eprintf "index answers for %d node(s) but the graph has %d\n"
          (Reach_index.original_n idx) n;
        exit 1
    | _ -> ());
    let answer =
      match (server, planner, index) with
      | Some sock, _, _ ->
          let c = Server_client.connect_unix sock in
          let answer =
            Fun.protect
              ~finally:(fun () -> Server_client.close c)
              (fun () -> (Server_client.reach c [| (source, target) |]).(0))
          in
          Printf.printf "QR(%d, %d) = %b   (served over %s)\n" source target
            answer sock;
          answer
      | None, true, _ ->
          let pl = Planner.create ?index g in
          let answer = Planner.eval pl ~source ~target in
          Printf.printf "QR(%d, %d) = %b   (planner: %s)\n" source target
            answer (Planner.describe pl);
          answer
      | None, false, Some idx ->
          let answer = Reach_index.query idx ~source ~target in
          Printf.printf "QR(%d, %d) = %b   (%s index over %d node(s))\n"
            source target answer
            (Reach_index.algorithm_name (Reach_index.algorithm idx))
            (Reach_index.indexed_n idx);
          answer
      | None, false, None ->
          let c = Compress_reach.compress g in
          let s, t = Compress_reach.rewrite c ~source ~target in
          let answer = Compress_reach.answer c ~source ~target in
          Printf.printf
            "QR(%d, %d) = %b   (rewritten to QR(%d, %d) on Gr with %d hypernodes)\n"
            source target answer s t
            (Digraph.n (Compressed.graph c));
          answer
    in
    let direct = Reach_query.eval Reach_query.Bfs g ~source ~target in
    assert (direct = answer)
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Answer a reachability query via the compression.")
    Term.(
      const run $ obs_term $ domains_arg $ mmap_arg $ graph_arg $ source
      $ target $ planner_arg $ index_file_arg $ server_arg)

(* ------------------------------------------------------------------ *)
(* match *)

let match_cmd =
  let pattern_file =
    Arg.(
      required
      & opt (some file) None
      & info [ "pattern"; "p" ] ~docv:"FILE" ~doc:"Pattern query file.")
  in
  let run () mmap path pattern_file =
    let g, _ = read_graph ~mmap path in
    let p =
      try Pattern_io.load pattern_file
      with Pattern_io.Parse_error (line, msg) ->
        Printf.eprintf "%s:%d: %s\n" pattern_file line msg;
        exit 1
    in
    let c = Compress_bisim.compress g in
    match Compress_bisim.answer p c with
    | None -> print_endline "no match"
    | Some m ->
        Array.iteri
          (fun u matches ->
            Printf.printf "pattern node %d: %s\n" u
              (String.concat ", "
                 (List.map string_of_int (Array.to_list matches))))
          m
  in
  Cmd.v
    (Cmd.info "match"
       ~doc:"Evaluate a pattern query on the compressed graph.")
    Term.(const run $ obs_term $ mmap_arg $ graph_arg $ pattern_file)

(* ------------------------------------------------------------------ *)
(* cquery: query a saved compression without the original graph *)

let cquery_cmd =
  let comp_file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"COMPRESSED"
          ~doc:"Compressed graph file written by $(b,qpgc compress --save).")
  in
  let source =
    Arg.(required & pos 1 (some int) None & info [] ~docv:"SOURCE" ~doc:"Source node (original id).")
  in
  let target =
    Arg.(required & pos 2 (some int) None & info [] ~docv:"TARGET" ~doc:"Target node (original id).")
  in
  let run () mmap path source target =
    let c =
      try
        let c = Compressed_io.load ~mmap path in
        Graph_io.check_mapped (Compressed.graph c);
        c
      with
      | Compressed_io.Parse_error (line, msg) | Graph_io.Parse_error (line, msg) ->
        Printf.eprintf "%s:%d: %s
" path line msg;
        exit 1
    in
    let n = Compressed.original_n c in
    if source < 0 || source >= n || target < 0 || target >= n then begin
      Printf.eprintf "nodes must be in [0, %d)
" n;
      exit 1
    end;
    Printf.printf "QR(%d, %d) = %b   (answered on Gr alone: %d hypernodes)
"
      source target
      (Compress_reach.answer c ~source ~target)
      (Digraph.n (Compressed.graph c))
  in
  Cmd.v
    (Cmd.info "cquery"
       ~doc:
         "Answer a reachability query from a saved compression, without the           original graph.")
    Term.(const run $ obs_term $ mmap_arg $ comp_file $ source $ target)

(* ------------------------------------------------------------------ *)
(* rpq *)

let rpq_cmd =
  let regex =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"REGEX"
          ~doc:
            "Regular path query over node labels: atoms $(b,l<id>) and \
             $(b,.), postfix $(b,*)/$(b,+)/$(b,?), infix $(b,|), parentheses.")
  in
  let run () mmap path regex =
    let g, _ = read_graph ~mmap path in
    let r =
      try Rpq.parse regex
      with Invalid_argument msg ->
        Printf.eprintf "%s\n" msg;
        exit 1
    in
    let c = Compress_bisim.compress g in
    let nodes = Compress_bisim.answer_rpq r c in
    Printf.printf
      "%d node(s) with an outgoing path matching %s (answered on Gr with %d hypernodes):\n"
      (Array.length nodes) regex
      (Digraph.n (Compressed.graph c));
    Array.iter (fun v -> Printf.printf "%d " v) nodes;
    print_newline ()
  in
  Cmd.v
    (Cmd.info "rpq"
       ~doc:
         "Evaluate a regular path query on the compressed graph (the \
          paper's Sec 7 extension).")
    Term.(const run $ obs_term $ mmap_arg $ graph_arg $ regex)

(* ------------------------------------------------------------------ *)
(* dot: Graphviz export, optionally clustered by the compression *)

let dot_cmd =
  let cluster_mode =
    let mode =
      Arg.enum [ ("none", `None); ("reach", `Reach); ("pattern", `Pattern) ]
    in
    Arg.(
      value
      & opt mode `None
      & info [ "cluster" ] ~docv:"MODE"
          ~doc:
            "Group nodes into Graphviz clusters by their hypernode under              the $(b,reach) or $(b,pattern) compression.")
  in
  let run () mmap path cluster_mode =
    let g, _ = read_graph ~mmap path in
    let cluster =
      match cluster_mode with
      | `None -> None
      | `Reach ->
          let c = Compress_reach.compress g in
          Some (Array.init (Digraph.n g) (Compressed.hypernode c))
      | `Pattern ->
          let c = Compress_bisim.compress g in
          Some (Array.init (Digraph.n g) (Compressed.hypernode c))
    in
    print_string (Graph_io.to_dot ?cluster g)
  in
  Cmd.v
    (Cmd.info "dot"
       ~doc:
         "Render the graph as Graphviz DOT, optionally clustered by           hypernode.")
    Term.(const run $ obs_term $ mmap_arg $ graph_arg $ cluster_mode)

(* ------------------------------------------------------------------ *)
(* convert: re-encode a graph file between the storage formats *)

let convert_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"INPUT" ~doc:"Graph file in any supported format.")
  in
  let output =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"OUTPUT" ~doc:"Destination file.")
  in
  let format_arg =
    Arg.(
      value
      & opt
          (Arg.enum
             (("text", None) :: List.map (fun (k, b) -> (k, Some b)) backends))
          (Some Digraph.Flat)
      & info [ "format"; "f" ] ~docv:"FORMAT"
          ~doc:
            "Output format: $(b,text), or the binary snapshot kinds \
             $(b,flat) ('G') or $(b,mmap) ('M', zero-copy loadable with \
             $(b,--mmap)).")
  in
  let run () mmap input output format =
    let g, labels = read_graph ~mmap input in
    (match format with
    | None -> Graph_io.save ~labels output g
    | Some format -> Graph_io.save_binary ~labels ~format output g);
    let bytes = In_channel.with_open_bin output In_channel.length in
    let bytes = Int64.to_int bytes in
    Printf.printf "wrote %s: |V| = %d, |E| = %d, %d bytes (%.1f bytes/edge)\n"
      output (Digraph.n g) (Digraph.m g) bytes
      (if Digraph.m g = 0 then 0.0
       else float_of_int bytes /. float_of_int (Digraph.m g))
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:
         "Re-encode a graph file between the text format and the binary \
          storage kinds, preserving label names.")
    Term.(const run $ obs_term $ mmap_arg $ input $ output $ format_arg)

(* ------------------------------------------------------------------ *)
(* workload: run a query workload file over G and over Gr, verify, time *)

let workload_cmd =
  let workload_file =
    Arg.(
      required
      & opt (some file) None
      & info [ "queries"; "q" ] ~docv:"FILE"
          ~doc:
            "Workload file: one query per line — $(b,r <u> <v>) for              reachability, $(b,p <pattern-file>) for a pattern query,              $(b,x <regex>) for a regular path query.")
  in
  let run () domains mmap path workload_file planner index_file =
    setup_domains domains;
    let g, _ = read_graph ~mmap path in
    let lines =
      In_channel.with_open_text workload_file In_channel.input_lines
      |> List.mapi (fun i l -> (i + 1, String.trim l))
      |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')
    in
    let t0 = Obs.Clock.now_ns () in
    let rc = lazy (Compress_reach.compress g) in
    let pc = lazy (Compress_bisim.compress g) in
    (* Reachability evaluator for the Gr side: the compression's per-query
       BFS by default, a loaded index or the planner when requested. *)
    let reach_eval =
      lazy
        (match (index_file, planner) with
        | Some f, false ->
            let idx = load_index ~mmap f in
            fun ~source ~target -> Reach_index.query idx ~source ~target
        | Some f, true ->
            let pl = Planner.create ~index:(load_index ~mmap f) g in
            fun ~source ~target -> Planner.eval pl ~source ~target
        | None, true ->
            let pl = Planner.create g in
            fun ~source ~target -> Planner.eval pl ~source ~target
        | None, false ->
            fun ~source ~target ->
              Compress_reach.answer (Lazy.force rc) ~source ~target)
    in
    let time = Obs.time in
    let g_time = ref 0.0 and gr_time = ref 0.0 in
    let count = ref 0 and mismatches = ref 0 in
    List.iter
      (fun (lineno, line) ->
        let parts =
          String.split_on_char ' ' line |> List.filter (fun p -> p <> "")
        in
        let record equal dg dgr =
          incr count;
          g_time := !g_time +. dg;
          gr_time := !gr_time +. dgr;
          if not equal then begin
            incr mismatches;
            Printf.eprintf "%s:%d: MISMATCH
" workload_file lineno
          end
        in
        match parts with
        | [ "r"; u; v ] ->
            let u = int_of_string u and v = int_of_string v in
            let a, dg =
              time (fun () -> Reach_query.eval Reach_query.Bfs g ~source:u ~target:v)
            in
            let b, dgr =
              time (fun () -> (Lazy.force reach_eval) ~source:u ~target:v)
            in
            record (a = b) dg dgr
        | [ "p"; file ] ->
            let p = Pattern_io.load file in
            let a, dg = time (fun () -> Bounded_sim.eval p g) in
            let b, dgr =
              time (fun () -> Compress_bisim.answer p (Lazy.force pc))
            in
            record (Pattern.result_equal a b) dg dgr
        | [ "x"; regex ] ->
            let r = Rpq.parse regex in
            let a, dg = time (fun () -> Bitset.to_list (Rpq.matches r g)) in
            let b, dgr =
              time (fun () ->
                  Array.to_list (Compress_bisim.answer_rpq r (Lazy.force pc)))
            in
            record (a = b) dg dgr
        | _ ->
            Printf.eprintf "%s:%d: unrecognised query %S
" workload_file
              lineno line;
            exit 1)
      lines;
    Printf.printf
      "%d queries: %.3fs on G, %.3fs via compression (%.3fs total with the \
       one-time compression), %d mismatches\n"
      !count !g_time !gr_time
      (Obs.Clock.elapsed_s t0)
      !mismatches;
    if !mismatches > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:"Run a query workload over a graph and its compression, verifying agreement.")
    Term.(
      const run $ obs_term $ domains_arg $ mmap_arg $ graph_arg $ workload_file
      $ planner_arg $ index_file_arg)

(* ------------------------------------------------------------------ *)
(* datasets *)

let datasets_cmd =
  let run () () =
    Printf.printf "%-12s %10s %10s %6s   %s\n" "name" "|V|" "|E|" "|L|"
      "models";
    List.iter
      (fun s ->
        Printf.printf "%-12s %10d %10d %6d   %d / %d (paper)\n"
          s.Datasets.name s.Datasets.nodes s.Datasets.edges s.Datasets.labels
          s.Datasets.paper_nodes s.Datasets.paper_edges)
      (Datasets.reach_datasets @ Datasets.pattern_datasets)
  in
  Cmd.v
    (Cmd.info "datasets" ~doc:"List the built-in dataset stand-ins.")
    Term.(const run $ obs_term $ const ())

(* ------------------------------------------------------------------ *)
(* serve / loadgen *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path of the daemon.")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"N" ~doc:"TCP port of the daemon.")

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"TCP host (default 127.0.0.1).")

let serve_cmd =
  let no_mmap =
    Arg.(
      value & flag
      & info [ "no-mmap" ]
          ~doc:
            "Load the snapshot eagerly onto the heap instead of the \
             default zero-copy mmap open.")
  in
  let batch_max =
    Arg.(
      value & opt int 8192
      & info [ "batch-max" ] ~docv:"N"
          ~doc:"Queries per coalesced eval_batch dispatch (default 8192).")
  in
  let queue_max =
    Arg.(
      value & opt int 64
      & info [ "queue-max" ] ~docv:"N"
          ~doc:
            "Request frames parsed per connection per loop cycle — the \
             per-connection backpressure bound (default 64).")
  in
  let max_frame =
    Arg.(
      value
      & opt int Server_protocol.default_max_frame
      & info [ "max-frame" ] ~docv:"BYTES"
          ~doc:
            "Largest accepted frame payload; oversized frames get an \
             error reply and the connection is dropped (default 16MiB).")
  in
  let ready_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "ready-file" ] ~docv:"FILE"
          ~doc:
            "Write $(docv) once every listener is bound — scripts poll it \
             instead of racing the startup.")
  in
  let http_port =
    Arg.(
      value
      & opt (some int) None
      & info [ "http-port" ] ~docv:"N"
          ~doc:
            "Serve $(b,GET /metrics), $(b,/healthz) and $(b,/readyz) over \
             HTTP on this TCP port, inside the same event loop.")
  in
  let http_socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "http-socket" ] ~docv:"PATH"
          ~doc:"Serve the scrape endpoints on this unix-domain socket.")
  in
  let log_level =
    Arg.(
      value & opt string "info"
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:
            "Structured-log threshold: debug, info, warn, error or off \
             (default info).  Lines go to stderr.")
  in
  let log_json =
    Arg.(
      value & flag
      & info [ "log-json" ]
          ~doc:"Emit JSON log lines instead of the default logfmt.")
  in
  let slow_us =
    Arg.(
      value & opt float 1000.0
      & info [ "slow-us" ] ~docv:"MICROSECONDS"
          ~doc:
            "Flight-recorder threshold: every frame at or above this \
             latency is recorded (default 1000).")
  in
  let sample_every =
    Arg.(
      value & opt int 64
      & info [ "sample-every" ] ~docv:"N"
          ~doc:
            "Also record 1 in $(docv) below-threshold frames as a \
             baseline (default 64; 0 disables sampling).")
  in
  let flight_cap =
    Arg.(
      value & opt int 4096
      & info [ "flight-cap" ] ~docv:"N"
          ~doc:"Flight-recorder ring capacity in frames (default 4096).")
  in
  let flight_dump =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight-dump" ] ~docv:"FILE"
          ~doc:
            "Chrome-trace file SIGUSR1 dumps the flight recorder to \
             (default: qpgc-flight-<pid>.json in the temp directory).")
  in
  let run () domains no_mmap path index_file socket port host http_port
      http_socket batch_max queue_max max_frame ready_file log_level log_json
      slow_us sample_every flight_cap flight_dump =
    setup_domains domains;
    (match Obs.Log.level_of_string log_level with
    | Ok l -> Obs.Log.set_level l
    | Error e ->
        Printf.eprintf "serve: %s\n" e;
        exit 1);
    if log_json then Obs.Log.set_format Obs.Log.Json;
    let listeners =
      (match socket with Some p -> [ Server.Unix_socket p ] | None -> [])
      @
      match port with
      | Some p -> [ Server.Tcp { host; port = p } ]
      | None -> []
    in
    if listeners = [] then begin
      Printf.eprintf "serve: pass --socket PATH and/or --port N\n";
      exit 1
    end;
    let http_listeners =
      (match http_socket with Some p -> [ Server.Unix_socket p ] | None -> [])
      @
      match http_port with
      | Some p -> [ Server.Tcp { host; port = p } ]
      | None -> []
    in
    let engine =
      try Server.load_engine ~mmap:(not no_mmap) ?index_file path with
      | Graph_io.Parse_error (line, msg)
      | Compressed_io.Parse_error (line, msg)
      | Reach_index_io.Parse_error (line, msg) ->
          Printf.eprintf "%s:%d: %s\n" path line msg;
          exit 1
      | Sys_error e ->
          Printf.eprintf "%s\n" e;
          exit 1
    in
    Obs.Log.info "serving"
      ~fields:
        [
          ("graph", Obs.Log.Str (Server.engine_info engine));
          ("route", Obs.Log.Str (Server.engine_route engine));
        ];
    let on_ready () =
      match ready_file with
      | None -> ()
      | Some f ->
          Out_channel.with_open_bin f (fun oc -> output_string oc "ready\n")
    in
    let (_ : Server.totals) =
      Server.run ~max_frame ~queue_max ~batch_max ~on_ready ~http_listeners
        ~slow_us ~sample_every ~flight_cap ?flight_file:flight_dump
        ~listeners engine
    in
    ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve reachability and pattern queries from a resident snapshot \
          over the binary protocol (unix socket and/or TCP), with an \
          optional HTTP scrape plane for metrics and health.")
    Term.(
      const run $ obs_term $ domains_arg $ no_mmap $ graph_arg
      $ index_file_arg $ socket_arg $ port_arg $ host_arg $ http_port
      $ http_socket $ batch_max $ queue_max $ max_frame $ ready_file
      $ log_level $ log_json $ slow_us $ sample_every $ flight_cap
      $ flight_dump)

let loadgen_cmd =
  let queries =
    Arg.(
      value & opt int 10_000
      & info [ "queries"; "n" ] ~docv:"N"
          ~doc:"Total reachability queries to issue (default 10000).")
  in
  let concurrency =
    Arg.(
      value & opt int 4
      & info [ "concurrency"; "c" ] ~docv:"N"
          ~doc:"Concurrent client connections (default 4).")
  in
  let batch =
    Arg.(
      value & opt int 256
      & info [ "batch"; "b" ] ~docv:"N"
          ~doc:"Queries per request frame (default 256).")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N" ~doc:"Query-pair RNG seed (default 42).")
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Re-answer every query with the in-process BFS oracle and \
             fail on any divergence.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the run summary (qps, p50/p99) to $(docv) as JSON.")
  in
  let wait_ready =
    Arg.(
      value & opt float 5.0
      & info [ "wait-ready" ] ~docv:"SECONDS"
          ~doc:
            "Retry refused connections for up to $(docv) seconds before \
             giving up (default 5).")
  in
  let shutdown =
    Arg.(
      value & flag
      & info [ "shutdown" ]
          ~doc:"Send the shutdown verb after the run drains the daemon.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Print the daemon's stats verb output after the run.")
  in
  let run () domains mmap path socket port host queries concurrency batch
      seed verify json wait_ready shutdown stats =
    setup_domains domains;
    let connect_once =
      match (socket, port) with
      | Some p, _ -> fun () -> Server_client.connect_unix p
      | None, Some p -> fun () -> Server_client.connect_tcp ~host ~port:p
      | None, None ->
          Printf.eprintf "loadgen: pass --socket PATH or --port N\n";
          exit 1
    in
    let connect () =
      let deadline = Obs.Clock.now_ns () in
      let rec go () =
        match connect_once () with
        | c -> c
        | exception
            Unix.Unix_error
              ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.EAGAIN), _, _)
          when Obs.Clock.elapsed_s deadline < wait_ready ->
            Unix.sleepf 0.05;
            go ()
      in
      go ()
    in
    let g, _ = read_graph ~mmap path in
    let rng = Random.State.make [| seed |] in
    let pairs = Reach_query.random_pairs rng g ~count:queries in
    let res = Server_loadgen.run ~connect ~concurrency ~batch ~pairs in
    Printf.printf "loadgen: %d queries in %d batches over %d connection(s)\n"
      res.Server_loadgen.queries res.Server_loadgen.batches concurrency;
    Printf.printf "qps: %.0f (%.3fs elapsed)\n" res.Server_loadgen.qps
      res.Server_loadgen.elapsed_s;
    Printf.printf "latency_us: p50 %.0f, p99 %.0f\n"
      (Server_loadgen.percentile res.Server_loadgen.latencies_us 50.0)
      (Server_loadgen.percentile res.Server_loadgen.latencies_us 99.0);
    if verify then begin
      let oracle = Reach_query.eval_batch Reach_query.Bfs g pairs in
      let diverged = ref (-1) in
      Array.iteri
        (fun i a ->
          if !diverged < 0 && a <> res.Server_loadgen.answers.(i) then
            diverged := i)
        oracle;
      if !diverged >= 0 then begin
        let s, t = pairs.(!diverged) in
        Printf.eprintf
          "loadgen: query %d diverged: served QR(%d, %d) = %b, oracle says %b\n"
          !diverged s t
          res.Server_loadgen.answers.(!diverged)
          oracle.(!diverged);
        exit 1
      end;
      Printf.printf "verified: %d answers match the BFS oracle\n"
        (Array.length oracle)
    end;
    (match json with
    | None -> ()
    | Some file ->
        Out_channel.with_open_bin file (fun oc ->
            Printf.fprintf oc
              "{\"queries\": %d, \"concurrency\": %d, \"batch\": %d, \
               \"batches\": %d, \"elapsed_s\": %.6f, \"qps\": %.1f, \
               \"p50_us\": %.1f, \"p99_us\": %.1f, \"verified\": %b}\n"
              res.Server_loadgen.queries concurrency batch
              res.Server_loadgen.batches res.Server_loadgen.elapsed_s
              res.Server_loadgen.qps
              (Server_loadgen.percentile res.Server_loadgen.latencies_us 50.0)
              (Server_loadgen.percentile res.Server_loadgen.latencies_us 99.0)
              verify));
    if stats then begin
      let c = connect () in
      let text =
        Fun.protect
          ~finally:(fun () -> Server_client.close c)
          (fun () -> Server_client.stats c)
      in
      print_string text
    end;
    if shutdown then begin
      let c = connect () in
      let ack =
        Fun.protect
          ~finally:(fun () -> Server_client.close c)
          (fun () -> Server_client.shutdown c)
      in
      Printf.printf "shutdown: %s\n" ack
    end
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive a running $(b,qpgc serve) daemon with concurrent batched \
          reachability queries and report qps and latency percentiles.")
    Term.(
      const run $ obs_term $ domains_arg $ mmap_arg $ graph_arg $ socket_arg
      $ port_arg $ host_arg $ queries $ concurrency $ batch $ seed $ verify
      $ json $ wait_ready $ shutdown $ stats)

let top_cmd =
  let interval =
    Arg.(
      value & opt float 2.0
      & info [ "interval"; "i" ] ~docv:"SECONDS"
          ~doc:"Refresh interval (default 2).")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:
            "Print a single snapshot and exit instead of refreshing the \
             screen — for scripts and CI.")
  in
  let wait_ready =
    Arg.(
      value & opt float 5.0
      & info [ "wait-ready" ] ~docv:"SECONDS"
          ~doc:
            "Retry refused connections for up to $(docv) seconds before \
             giving up (default 5).")
  in
  (* The stats verb is line-oriented "key: value" text; keep the daemon
     authoritative about what it reports and just re-arrange it here. *)
  let parse_stats text =
    String.split_on_char '\n' text
    |> List.filter_map (fun line ->
           match String.index_opt line ':' with
           | Some i when i > 0 ->
               Some
                 ( String.sub line 0 i,
                   String.trim
                     (String.sub line (i + 1) (String.length line - i - 1)) )
           | Some _ | None -> None)
  in
  let render kv =
    let get k = Option.value (List.assoc_opt k kv) ~default:"-" in
    let b = Buffer.create 512 in
    let line fmt =
      Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt
    in
    line "qpgc top — %s" (get "graph");
    line "route: %s   domains: %s   uptime_s: %s" (get "route") (get "domains")
      (get "uptime_s");
    line "connections: %s   scrapes: %s" (get "connections") (get "scrapes");
    line "frames: %s   queries: %s   batches: %s" (get "frames")
      (get "queries") (get "batches");
    line "qps: %s lifetime   |   %s over 10s" (get "qps") (get "qps_10s");
    line "latency_us: %s lifetime   |   %s over 10s" (get "latency_us")
      (get "latency_us_10s");
    line "queue_depth: %s" (get "queue_depth");
    line "flight: %s" (get "flight");
    line "gc: %s" (get "gc");
    Buffer.contents b
  in
  let run () socket port host interval once wait_ready =
    let connect_once =
      match (socket, port) with
      | Some p, _ -> fun () -> Server_client.connect_unix p
      | None, Some p -> fun () -> Server_client.connect_tcp ~host ~port:p
      | None, None ->
          Printf.eprintf "top: pass --socket PATH or --port N\n";
          exit 1
    in
    let connect () =
      let started = Obs.Clock.now_ns () in
      let rec go () =
        match connect_once () with
        | c -> c
        | exception
            Unix.Unix_error
              ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.EAGAIN), _, _)
          when Obs.Clock.elapsed_s started < wait_ready ->
            Unix.sleepf 0.05;
            go ()
      in
      go ()
    in
    let c = connect () in
    Fun.protect
      ~finally:(fun () -> Server_client.close c)
      (fun () ->
        let rec loop () =
          let text =
            match Server_client.stats c with
            | s -> s
            | exception Failure e ->
                Printf.eprintf "top: %s\n" e;
                exit 1
          in
          let view = render (parse_stats text) in
          if once then print_string view
          else begin
            (* Home + clear-to-end keeps the refresh flicker-free. *)
            print_string "\027[H\027[2J";
            print_string view;
            flush stdout;
            Unix.sleepf (Float.max 0.1 interval);
            loop ()
          end
        in
        loop ())
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Poll a running $(b,qpgc serve) daemon and render a refreshing \
          view of qps, latency percentiles, queue depth, connections and \
          GC stats.")
    Term.(
      const run $ obs_term $ socket_arg $ port_arg $ host_arg $ interval
      $ once $ wait_ready)

let () =
  let doc = "query preserving graph compression (Fan et al., SIGMOD 2012)" in
  let info = Cmd.info "qpgc" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            generate_cmd; stats_cmd; compress_cmd; index_cmd; query_cmd;
            cquery_cmd; match_cmd; rpq_cmd; workload_cmd; dot_cmd;
            convert_cmd; datasets_cmd; serve_cmd; loadgen_cmd; top_cmd;
          ]))
