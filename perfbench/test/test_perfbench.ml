(* Tests of the benchmark's helpers, and a tiny-size smoke of every
   workload in both modes that checks each metric the workload promises
   is emitted, once, with its unit, and is declared in BENCHMARK.json.

   Usage: test_perfbench.exe QPGC_EXE BENCHMARK_JSON *)

open Pb_util

let qpgc = ref ""
let benchmark_json = ref ""
let flt = Alcotest.float 1e-9

(* ---- helpers ---- *)

let test_median () =
  Alcotest.check flt "odd" 3. (median [| 5.; 1.; 3.; 4.; 2. |]);
  Alcotest.check flt "even interpolates" 2.5 (median [| 4.; 1.; 3.; 2. |]);
  Alcotest.check flt "list" 7. (median_list [ 7. ]);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (median [||]))

let test_attribution_tolerance () =
  let within = Write_path.attribution_within in
  Alcotest.(check bool) "exact" true (within 100. 0.3);
  Alcotest.(check bool) "+14% of 0.3 s" true (within 114. 0.3);
  Alcotest.(check bool) "-16% of 0.3 s" false (within 84. 0.3);
  Alcotest.(check bool) "+20% of 1 s" false (within 120. 1.);
  Alcotest.(check bool) "+300% of 5 ms is 15 ms" true (within 400. 0.005);
  Alcotest.(check bool) "+600% of 5 ms is 30 ms" false (within 700. 0.005)

let test_proc_stat () =
  (* A command name with spaces and parentheses must not shift fields. *)
  let line =
    "4242 (qpgc (serve) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 37 5 0 0 \
     20 0 1 0 100 12345678 900 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 \
     17 1 0 0 0 0 0\n"
  in
  Alcotest.(check int) "utime + stime" 42 (proc_cpu_ticks line);
  Alcotest.check_raises "no command field" (Failure "proc stat: no command field")
    (fun () -> ignore (proc_cpu_ticks "4242 qpgc S 1"))

let test_proc_status () =
  let status =
    "Name:\tqpgc.exe\nState:\tS (sleeping)\nVmPeak:\t  210000 kB\n\
     VmHWM:\t   13612 kB\nVmRSS:\t   13000 kB\n"
  in
  Alcotest.(check int) "VmHWM" 13612 (vmhwm_kb status)

let stats_text minor queries batches frames =
  Printf.sprintf
    "graph: tree-cover index\nframes: %d ok, 0 malformed\nqueries: %d\n\
     batches: %d\nlatency_us: p50 64, p99 128\n\
     gc: minor %d, major 3, heap_words 1000\n"
    frames queries batches minor

let test_stats_verb () =
  let s = stats_text 17 2560 10 11 in
  Alcotest.(check int) "queries" 2560 (line_int s "queries:");
  Alcotest.(check int) "batches" 10 (line_int s "batches:");
  Alcotest.(check int) "frames" 11 (line_int s "frames:");
  Alcotest.(check int) "gc minor" 17 (line_int s "gc: minor");
  Alcotest.check_raises "absent" (Failure "no line starting with uptime:")
    (fun () -> ignore (line_int s "uptime:"))

let metrics_text counts =
  let b = Buffer.create 256 in
  Buffer.add_string b "# TYPE qpgc_server_frames counter\nqpgc_server_frames 9\n";
  Buffer.add_string b "# TYPE qpgc_server_latency_us histogram\n";
  let cum = ref 0 in
  List.iter
    (fun (le, c) ->
      cum := !cum + c;
      Buffer.add_string b
        (Printf.sprintf "qpgc_server_latency_us_bucket{le=\"%s\"} %d\n" le !cum))
    counts;
  Buffer.add_string b
    (Printf.sprintf "qpgc_server_latency_us_sum 1\nqpgc_server_latency_us_count %d\n"
       !cum);
  Buffer.contents b

let test_histogram_delta () =
  let before =
    histogram_buckets
      (metrics_text [ ("16", 5); ("32", 1); ("64", 0); ("+Inf", 0) ])
      "qpgc_server_latency_us"
  in
  let after =
    histogram_buckets
      (metrics_text [ ("16", 5); ("32", 11); ("64", 10); ("+Inf", 0) ])
      "qpgc_server_latency_us"
  in
  Alcotest.(check int) "bucket count" 4 (Array.length after);
  let d = histogram_delta ~before ~after in
  Alcotest.(check (array (pair (float 0.) int)))
    "per-bucket delta"
    [| (16., 0); (32., 10); (64., 10); (infinity, 0) |]
    d;
  (* 20 frames in the window: the median is the 10th, the top of (16,32]. *)
  Alcotest.(check (option flt)) "p50" (Some 32.) (histogram_quantile d 0.5);
  Alcotest.(check (option flt)) "p75" (Some 48.) (histogram_quantile d 0.75);
  Alcotest.(check (option flt)) "empty" None
    (histogram_quantile (histogram_delta ~before ~after:before) 0.5);
  let overflow = [| (16., 0); (32., 0); (infinity, 4) |] in
  Alcotest.(check (option flt)) "+Inf mass reports last bound" (Some 32.)
    (histogram_quantile overflow 0.5)

let test_result_json () =
  let j =
    result_json ~correct:true ~attempted:3 ~failed:0
      [ metric "p50_us" "us" 72.5; metric "qps" "1/s" 2e6 ]
  in
  Alcotest.(check string) "result line"
    "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
     {\"p50_us\": {\"value\": 72.5, \"unit\": \"us\"}, \"qps\": {\"value\": \
     2000000, \"unit\": \"1/s\"}}}"
    j;
  Alcotest.check_raises "no NaN" (Failure "json_number: non-finite metric value")
    (fun () -> ignore (json_number Float.nan))

let test_spans () =
  let t = Spans.create () in
  let outer = Spans.enter t "outer" ~op:1 in
  let inner = Spans.enter t "inner" ~op:1 in
  Spans.leave t inner;
  Spans.leave t outer;
  (try Spans.span t "raises" ~op:2 (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check int) "three spans" 3 (Spans.count t);
  Alcotest.(check bool) "the child nests inside its parent" true
    ((Spans.durations t "inner").(0) <= (Spans.durations t "outer").(0));
  Alcotest.(check int) "closed on exception" 1
    (Array.length (Spans.durations t "raises"))

(* ---- smoke ---- *)

(* What every workload promises, by mode: (name, unit).  Both workloads
   emit the same lists; what each name measures in each is in README.md. *)
let end_to_end =
  [ ("qps", "1/s"); ("p50_us", "us"); ("p90_us", "us"); ("setup_s", "s");
    ("rss_mb", "MB"); ("compress_s", "s"); ("update_ms", "ms") ]

let per_layer =
  [ ("codec.request_us", "us"); ("codec.response_us", "us");
    ("server.turnaround_us", "us"); ("server.transport_us", "us");
    ("server.loop_us", "us"); ("server.cpu_us_per_query", "us");
    ("server.queries_per_dispatch", "count");
    ("server.minor_gcs_per_kframe", "count"); ("obs.telemetry_cpu_pct", "%");
    ("query.eval_us", "us"); ("compressed.map_us", "us");
    ("query.answer_count", "count"); ("engine.build_s", "s");
    ("snapshot.open_ms", "ms"); ("snapshot.bytes_per_edge", "B");
    ("trace.serve_overhead_pct", "%"); ("attrib.p50_explained_pct", "%");
    ("attrib.p50_residual_us", "us");
    ("scc.compute_s", "s"); ("partition.compute_s", "s");
    ("quotient.build_s", "s"); ("edge_update.apply_ms", "ms");
    ("inc.kept_ratio", "ratio"); ("inc.region_size", "count");
    ("inc.affected_members", "count"); ("inc.vs_recompress", "ratio");
    ("gc.compress_minor_words_per_edge", "words");
    ("pool.compress_speedup", "ratio"); ("trace.compress_overhead_pct", "%");
    ("attrib.compress_explained_pct", "%") ]

let workloads = [ ("reach", Reach_workload.run); ("pattern", Pattern_workload.run) ]

let smoke name trace expect () =
  let dir = Printf.sprintf "smoke-%s-%b" name trace in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let ctx =
    { Ctx.seed = 7; seconds = 0.6; trace; scale = 0.02; qpgc = !qpgc; dir;
      spans = Spans.create () }
  in
  let o = (List.assoc name workloads) ctx in
  Alcotest.(check int) "no failed operations" 0 o.Ctx.failed;
  Alcotest.(check bool) "attempted some" true (o.Ctx.attempted > 0);
  let got = List.map (fun m -> (m.name, m.unit_)) o.Ctx.metrics in
  Alcotest.(check (list (pair string string)))
    "metric names and units" (List.sort compare expect) (List.sort compare got);
  List.iter
    (fun m ->
      if not (Float.is_finite m.value) then Alcotest.failf "%s is not finite" m.name)
    o.Ctx.metrics;
  List.iter (fun p -> try Sys.remove (Filename.concat dir p) with Sys_error _ -> ())
    (Array.to_list (Sys.readdir dir));
  Unix.rmdir dir

(* Counts repeat exactly for one seed: the update sequence is a
   function of the seed and --seconds alone. *)
let test_counts_repeat scheme name () =
  let counts () =
    let ctx =
      { Ctx.seed = 11; seconds = 0.6; trace = true; scale = 0.02; qpgc = !qpgc;
        dir = "."; spans = Spans.create () }
    in
    let g = Ctx.stand_in ctx name ~nodes:80_000 ~edges:410_000 in
    let wp = Write_path.create ctx scheme g in
    for _ = 1 to Write_path.rounds_for ctx.seconds do
      wp.round ()
    done;
    let r = wp.finish () in
    Alcotest.(check int) "no failed checks" 0 r.Write_path.failed;
    List.filter_map
      (fun m ->
        if m.unit_ = "count" || Filename.check_suffix m.name "kept_ratio" then
          Some (m.name, m.value)
        else None)
      r.Write_path.layers
  in
  let a = counts () and b = counts () in
  Alcotest.(check bool) "some counts" true (List.length a >= 3);
  Alcotest.(check (list (pair string (float 0.)))) "same counts" a b

(* The promised metrics are exactly those declared in BENCHMARK.json,
   with the same units, in the list of their mode. *)
let declared section =
  let text = In_channel.with_open_bin !benchmark_json In_channel.input_all in
  let start =
    match Str.search_forward (Str.regexp_string (Printf.sprintf "\"%s\"" section)) text 0 with
    | i -> i
    | exception Not_found -> Alcotest.failf "no %s in BENCHMARK.json" section
  in
  let stop = try String.index_from text start ']' with Not_found -> String.length text in
  let body = String.sub text start (stop - start) in
  let re = Str.regexp "\"name\": \"\\([^\"]+\\)\", \"unit\": \"\\([^\"]+\\)\"" in
  let rec go pos acc =
    match Str.search_forward re body pos with
    | _ -> go (Str.match_end ()) ((Str.matched_group 1 body, Str.matched_group 2 body) :: acc)
    | exception Not_found -> List.rev acc
  in
  go 0 []

let test_declared () =
  let check section promised =
    Alcotest.(check (list (pair string string)))
      section (List.sort compare (declared section)) (List.sort compare promised)
  in
  check "end_to_end" end_to_end;
  check "per_layer" per_layer

let () =
  (match Sys.argv with
  | [| _; q; b |] ->
      qpgc := q;
      benchmark_json := b
  | _ ->
      prerr_endline "usage: test_perfbench QPGC_EXE BENCHMARK_JSON";
      exit 2);
  let smokes =
    List.concat_map
      (fun (name, _) ->
        [
          Alcotest.test_case (name ^ " end-to-end") `Slow (smoke name false end_to_end);
          Alcotest.test_case (name ^ " traced") `Slow (smoke name true per_layer);
        ])
      workloads
  in
  Alcotest.run ~argv:[| Sys.argv.(0) |] "perfbench"
    [
      ( "helpers",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "attribution tolerance" `Quick test_attribution_tolerance;
          Alcotest.test_case "proc stat cpu ticks" `Quick test_proc_stat;
          Alcotest.test_case "proc status VmHWM" `Quick test_proc_status;
          Alcotest.test_case "stats verb fields" `Quick test_stats_verb;
          Alcotest.test_case "metrics verb histogram delta" `Quick test_histogram_delta;
          Alcotest.test_case "result line" `Quick test_result_json;
          Alcotest.test_case "spans" `Quick test_spans;
          Alcotest.test_case "declared in BENCHMARK.json" `Quick test_declared;
        ] );
      ( "smoke",
        smokes
        @ [
            Alcotest.test_case "reach counts repeat" `Slow
              (test_counts_repeat Write_path.reach "Youtube");
            Alcotest.test_case "pattern counts repeat" `Slow
              (test_counts_repeat Write_path.bisim "Youtube-l");
          ] );
    ]
