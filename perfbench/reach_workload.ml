(* reach: the reachability class end to end on a well-compressing social
   stand-in.  Serving: frames of 1024 uniform random pairs against a
   tree-cover 'I' snapshot, served by a fresh `qpgc serve --domains 1`
   per daemon round, where the request path (codec, select loop, index
   lookup) does the work.  Then the write path on the same graph:
   compressR from scratch and incRCM batches (see Write_path). *)

open Pb_util

(* Frames of 1024 pairs: at 256 pairs, a round trip was half socket
   wake-ups, whose cost swings with the host's load from minute to
   minute, and qps and the tail swung by a quarter between runs. *)
let frame_pairs = 1024
let pool_frames = 256
let sources = 256
let daemons = 6
let extra_setups = 1
let warmup_s = 0.3

let slice = 12 * pool_frames

(* Flags that switch the always-on telemetry plane off, for the traced
   run's telemetry-cost comparison. *)
let telemetry_off = [ "--log-level"; "off"; "--sample-every"; "0"; "--slow-us"; "1e12" ]

(* The traced run's serving layer figures: the request path's layers
   timed in-process from here (codec, index evaluation, the rewriting F,
   snapshot open, index build), the daemon's own view from its stats and
   metrics verbs, and what is left over.  Returns the oracle failures it saw and the
   metrics. *)
let layers (ctx : Ctx.t) ~g ~idx ~requests ~expected ~ws ~offs =
  let sp = ctx.spans in
  let open_ms =
    median
      (Array.init 5 (fun op ->
           let t0 = now_ns () in
           ignore (Spans.span sp "reach_index_io.load" ~op (fun () ->
                       Reach_index_io.load ~mmap:true idx));
           ms_of_ns (now_ns () - t0)))
  in
  let bytes_per_edge =
    float_of_int (Unix.stat idx).Unix.st_size /. float_of_int (Digraph.m g)
  in
  let engine = Server.load_engine idx in
  let c = Compress_reach.compress g in
  let buf = Buffer.create 4096 in
  let bad = ref 0 in
  let nf = Array.length requests in
  for pass = 0 to 1 do
    Array.iteri
      (fun i req ->
        let op = (pass * nf) + i in
        let span name f = Spans.span sp name ~op f in
        Buffer.clear buf;
        span "server_protocol.add_request" (fun () ->
            Server_protocol.add_request buf req);
        let s = Buffer.contents buf in
        let pairs =
          match span "server_protocol.decode_request" (fun () ->
                    Server_protocol.decode_request s ~pos:0) with
          | Some (Server_protocol.Frame (Server_protocol.Reach p), _) -> p
          | _ -> [||]
        in
        ignore (span "compress_reach.rewrite" (fun () ->
                    Array.map
                      (fun (source, target) -> Compress_reach.rewrite c ~source ~target)
                      pairs));
        let answers = span "reach_index.frame" (fun () -> Server.eval engine pairs) in
        if answers <> expected.(i) then incr bad;
        Buffer.clear buf;
        span "server_protocol.add_response" (fun () ->
            Server_protocol.add_response buf (Server_protocol.Answers answers));
        let s = Buffer.contents buf in
        ignore (span "server_protocol.decode_response" (fun () ->
                    Server_protocol.decode_response s ~pos:0)))
      requests
  done;
  let build_s =
    median
      (Array.init 3 (fun op ->
           let t0 = now_ns () in
           ignore (Spans.span sp "reach_index.build" ~op (fun () ->
                       Compress_reach.index ~algorithm:Reach_index.Tree_cover c));
           s_of_ns (now_ns () - t0)))
  in
  let d name = Spans.durations sp name in
  let pair_us a b = median (Array.map2 (fun x y -> (x +. y) /. 1e3) (d a) (d b)) in
  let med_us name = median (d name) /. 1e3 in
  let req_us = pair_us "server_protocol.add_request" "server_protocol.decode_request" in
  let resp_us = pair_us "server_protocol.add_response" "server_protocol.decode_response" in
  let frame_us = med_us "reach_index.frame" in
  let server_codec_us =
    med_us "server_protocol.decode_request" +. med_us "server_protocol.add_response"
  in
  let p50 = Serving.p (Serving.slices ws) 50. in
  let turnaround = Serving.across ws (fun w -> w.Serving.turnaround_us) in
  let cpu_per_query w =
    w.Serving.cpu_us /. float_of_int (Serving.stats_delta w "queries:")
  in
  let cpu_on = Serving.across ws cpu_per_query in
  let cpu_off = Serving.across offs cpu_per_query in
  let traced_p50 =
    match Serving.slices ~traced:true ws with [] -> p50 | sls -> Serving.p sls 50.
  in
  let explained = req_us +. resp_us +. frame_us in
  ( !bad,
    [
      metric "codec.request_us" "us" req_us;
      metric "codec.response_us" "us" resp_us;
      metric "server.turnaround_us" "us" turnaround;
      metric "server.transport_us" "us" (p50 -. turnaround);
      metric "server.loop_us" "us" (turnaround -. server_codec_us -. frame_us);
      metric "server.cpu_us_per_query" "us" cpu_on;
      metric "server.queries_per_dispatch" "count"
        (Serving.across ws (fun w ->
             float_of_int (Serving.stats_delta w "queries:")
             /. float_of_int (Serving.stats_delta w "batches:")));
      metric "server.minor_gcs_per_kframe" "count"
        (Serving.across ws (fun w ->
             1000. *. float_of_int (Serving.stats_delta w "gc: minor")
             /. float_of_int (Serving.stats_delta w "frames:")));
      metric "obs.telemetry_cpu_pct" "%" (100. *. (cpu_on -. cpu_off) /. cpu_off);
      metric "query.eval_us" "us" frame_us;
      metric "compressed.map_us" "us" (med_us "compress_reach.rewrite");
      metric "query.answer_count" "count"
        (float_of_int
           (Array.fold_left
              (fun a f -> Array.fold_left (fun a b -> if b then a + 1 else a) a f)
              0 expected));
      metric "engine.build_s" "s" build_s;
      metric "snapshot.open_ms" "ms" open_ms;
      metric "snapshot.bytes_per_edge" "B" bytes_per_edge;
      metric "trace.serve_overhead_pct" "%" (100. *. (traced_p50 -. p50) /. p50);
      metric "attrib.p50_explained_pct" "%" (100. *. explained /. p50);
      metric "attrib.p50_residual_us" "us" (p50 -. explained);
    ] )

let run (ctx : Ctx.t) =
  (* While serving, the client process stays on one domain, like the
     daemons, so the in-process layer figures compare with theirs and no
     idle worker domain shares the machine with the measured pair.  The
     write path's rounds, between the daemons, run at nproc domains. *)
  Pool.set_default_domains 1;
  let g = Ctx.stand_in ctx "Youtube" ~nodes:80_000 ~edges:410_000 in
  let n = Digraph.n g in
  let snap = Ctx.path ctx "reach.g" and idx = Ctx.path ctx "reach.i" in
  Graph_io.save_binary ~format:Digraph.Flat snap g;
  (* Queries and their BFS oracle, before any daemon exists. *)
  let rng = Ctx.rng ctx 0x5EED in
  let srcs = Array.init sources (fun _ -> Random.State.int rng n) in
  let desc = Array.map (fun u -> Traversal.descendants g u) srcs in
  let frames =
    Array.init pool_frames (fun _ ->
        Array.init frame_pairs (fun _ ->
            (Random.State.int rng sources, Random.State.int rng n)))
  in
  let expected =
    Array.map
      (Array.map (fun (s, v) -> srcs.(s) = v || Bitset.mem desc.(s) v))
      frames
  in
  let requests =
    Array.map
      (fun f -> Server_protocol.Reach (Array.map (fun (s, v) -> (srcs.(s), v)) f))
      frames
  in
  let check i = function
    | Server_protocol.Answers a -> a = expected.(i)
    | _ -> false
  in
  let weight _ = frame_pairs in
  let spans = if ctx.trace then Some ctx.spans else None in
  (* Set-up: rebuild the index with the real CLI, spawn a daemon on it
     and wait until it is ready. *)
  let start ~tag ~extra ~rebuild =
    let t0 = now_ns () in
    let built =
      (not rebuild)
      || Daemon.run_tool ~qpgc:ctx.qpgc ~log:(Ctx.path ctx (tag ^ ".index.log"))
           [ "index"; snap; "-o"; idx; "--domains"; "1" ]
    in
    if not built then None
    else
      let d =
        Daemon.spawn ~qpgc:ctx.qpgc ~dir:ctx.dir ~tag ~snapshot:idx ~extra
      in
      if Daemon.wait_ready d then Some (s_of_ns (now_ns () - t0), d)
      else begin
        Daemon.kill d;
        None
      end
  in
  (* One round: set up, then measure the daemon. *)
  let round ~tag ~extra ~rebuild ?spans ?traced_first () =
    Option.bind (start ~tag ~extra ~rebuild) (fun (setup_s, d) ->
        (* The traced run splits the same total window over twice the
           daemons. *)
        let share = if ctx.trace then 2 * daemons else daemons in
        Serving.measure ?spans ?traced_first ~daemon:d ~requests ~weight ~check ~slice ~warmup_s
          ~seconds:(ctx.seconds /. float_of_int share)
          ()
        |> Option.map (fun w -> (setup_s, w)))
  in
  (* A set-up takes about a second, CPU-bound, so three samples swing
     with the machine's speed.  Before each measured round the untraced
     run also sets up [extra_setups] daemons that are only drained, and
     setup_s is the median over all of them, spread across the run. *)
  let setup_only i =
    List.init (if ctx.trace then 0 else extra_setups) (fun j ->
        Option.bind
          (start ~tag:(Printf.sprintf "reachsetup%d_%d" i j) ~extra:[] ~rebuild:true)
          (fun (setup_s, d) -> if Daemon.stop d then Some setup_s else None))
  in
  (* The traced run interleaves telemetry-off daemons with the default
     ones (ABAB), so the telemetry CPU comparison sees the same drift.
     The write path's rounds run between the daemons. *)
  let wp = Write_path.create ctx Write_path.reach g in
  let write_rounds = Write_path.rounds_for ctx.seconds in
  let pinned = ref true in
  let per_daemon =
    List.init daemons (fun i ->
        if not (Serving.pin ()) then pinned := false;
        let setups = setup_only i in
        let on =
          round ~tag:(Printf.sprintf "reach%d" i) ~extra:[] ~rebuild:true
            ?spans ~traced_first:(i mod 2 = 1) ()
        in
        let rounds =
          if ctx.trace then
            [ (true, on);
              (false,
               round ~tag:(Printf.sprintf "reachoff%d" i) ~extra:telemetry_off
                 ~rebuild:false ()) ]
          else [ (true, on) ]
        in
        Serving.unpin ();
        for _ = 1 to Write_path.share ~rounds:write_rounds ~parts:daemons i do
          wp.round ()
        done;
        (setups, rounds))
  in
  let extra = List.concat_map fst per_daemon in
  let rounds = List.concat_map snd per_daemon in
  let ok = List.filter_map (fun (on, r) -> Option.map (fun r -> (on, r)) r) rounds in
  let all_ws = List.map (fun (_, (_, w)) -> w) ok in
  let ws = List.filter_map (fun (on, (_, w)) -> if on then Some w else None) ok in
  let offs = List.filter_map (fun (on, (_, w)) -> if on then None else Some w) ok in
  let extra_ok = List.filter_map Fun.id extra in
  let lost =
    List.length rounds - List.length ok + List.length extra - List.length extra_ok
  in
  (* A lost round counts as one failed operation; each set-up-only
     daemon got a shutdown. *)
  let attempted =
    List.fold_left (fun a w -> a + Serving.ops w) 0 all_ws
    + (List.length rounds - List.length ok)
    + List.length extra
  in
  let failed =
    List.fold_left (fun a w -> a + Serving.failures w) 0 all_ws + lost
  in
  Serving.note_windows "reach" ws;
  let sls = Serving.slices ws in
  let timed = List.fold_left (fun a sl -> a + Array.length sl.Serving.lat_us) 0 sls in
  Ctx.note "reach: %d daemons, %d slices, %d timed frames of %d pairs"
    (List.length ws) (List.length sls) timed frame_pairs;
  let served = ws <> [] && sls <> [] && ((not ctx.trace) || offs <> []) in
  let bad, serve_layers =
    if ctx.trace && served then layers ctx ~g ~idx ~requests ~expected ~ws ~offs
    else (0, [])
  in
  let wp = wp.finish () in
  let attempted =
    attempted + wp.attempted + if ctx.trace then 2 * pool_frames else 0
  in
  let failed = failed + bad + wp.failed in
  let vr =
    match Reach_index_io.load ~mmap:true idx with
    | i -> Reach_index.indexed_n i
    | exception _ -> 0
  in
  let stamp =
    [ ("V", string_of_int n); ("E", string_of_int (Digraph.m g));
      ("Vr", string_of_int vr); ("daemon_domains", "1");
      ("serving_pinned", string_of_bool !pinned);
      ("write_domains", string_of_int (Domain.recommended_domain_count ())) ]
  in
  if not served then
    { Ctx.attempted = max 1 attempted; failed = max 1 failed; metrics = []; stamp }
  else if not ctx.trace then
    let metrics =
      [
        metric "qps" "1/s" (Serving.qps sls);
        metric "p50_us" "us" (Serving.p sls 50.);
        metric "p90_us" "us" (Serving.p sls 90.);
        metric "setup_s" "s"
          (median_list
             (List.filter_map (fun (on, (s, _)) -> if on then Some s else None) ok
             @ extra_ok));
        metric "rss_mb" "MB" (Serving.across ws (fun w -> w.Serving.rss_mb));
        metric "compress_s" "s" wp.compress_s;
        metric "update_ms" "ms" wp.update_ms;
      ]
    in
    { Ctx.attempted; failed; metrics; stamp }
  else { Ctx.attempted; failed; metrics = serve_layers @ wp.layers; stamp }
