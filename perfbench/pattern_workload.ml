(* pattern: the pattern class end to end on labelled social stand-ins.
   Serving: bounded-simulation pattern frames against a labelled graph
   snapshot, served by a fresh `qpgc serve --domains 1` per daemon
   round.  Evaluation on the bisimulation quotient Gr and the
   post-processing P dominate and the server's own overhead is small,
   which makes this the counter-workload for request-path changes.  Then the write path on a
   four times larger labelled graph: compressB from scratch and incPCM
   batches (see Write_path). *)

open Pb_util

let pool_patterns = 600
let daemons = 6
let extra_setups = 1
let warmup_s = 0.3

(* Flags that switch the always-on telemetry plane off, for the traced
   run's telemetry-cost comparison. *)
let telemetry_off = Reach_workload.telemetry_off

(* Half a pass: any run of consecutive patterns whose length is a
   multiple of three carries the pool's mix of kinds. *)
let slice = pool_patterns / 2

(* Two patterns in three mirror a real subtree of G (non-empty answer);
   the rest are drawn from the label distribution.  The two kinds cost
   about 10x apart on Gr (anchored ones a few ms, random ones 15-30 ms),
   so an even split would put the median in the gap between them, where
   it swings with every seed; one in four anchored put it on the sparse
   low edge of the random range and did the same.  At two in three, p50
   lies inside the anchored patterns' cost range and p90 inside the
   random ones', and each percentile follows one kind.  A 600-pattern
   pool keeps the pool-to-pool spread of p50 near 3%.  Every edge is
   bounded: unbounded edges would make evaluation reachability-bound and
   route the cost elsewhere. *)
let patterns rng g =
  Array.init pool_patterns (fun i ->
      if i mod 3 <> 2 then
        (* A tree: extra anchored edges are searched with one BFS per
           attempt, which took longer than the timed window for the pool. *)
        Pattern_gen.anchored rng g ~nodes:4 ~edges:3 ~max_bound:2
      else
        Pattern_gen.random rng g ~nodes:4 ~edges:4 ~max_bound:2
          ~unbounded_prob:0.0)

(* The traced run's serving layer figures, as for reach: codec,
   evaluation on Gr, the post-processing P, the daemon's lazy compressB,
   snapshot open, the daemon's own view and what is left over. *)
let layers (ctx : Ctx.t) ~g ~snap ~pats ~expected ~ws ~offs =
  let sp = ctx.spans in
  let open_ms =
    median
      (Array.init 5 (fun op ->
           let t0 = now_ns () in
           ignore (Spans.span sp "graph_io.load" ~op (fun () ->
                       Graph_io.load ~mmap:true snap));
           ms_of_ns (now_ns () - t0)))
  in
  let bytes_per_edge =
    float_of_int (Unix.stat snap).Unix.st_size /. float_of_int (Digraph.m g)
  in
  let build_s =
    median
      (Array.init 3 (fun op ->
           let t0 = now_ns () in
           ignore (Spans.span sp "compress_bisim.compress" ~op (fun () ->
                       Compress_bisim.compress g));
           s_of_ns (now_ns () - t0)))
  in
  let c = Compress_bisim.compress g in
  let gr = Compressed.graph c in
  let buf = Buffer.create 4096 in
  let bad = ref 0 and pairs = ref 0 in
  Array.iteri
    (fun op p ->
      let span name f = Spans.span sp name ~op f in
      Buffer.clear buf;
      span "server_protocol.add_request" (fun () ->
          Server_protocol.add_request buf (Server_protocol.Match p));
      let s = Buffer.contents buf in
      ignore (span "server_protocol.decode_request" (fun () ->
                  Server_protocol.decode_request s ~pos:0));
      let r = span "bounded_sim.eval" (fun () -> Bounded_sim.eval p gr) in
      let r = span "compressed.expand_result" (fun () -> Compressed.expand_result c r) in
      if not (Pattern.result_equal r expected.(op)) then incr bad;
      pairs := !pairs + Pattern.result_size r;
      Buffer.clear buf;
      span "server_protocol.add_response" (fun () ->
          Server_protocol.add_response buf (Server_protocol.Matches r));
      let s = Buffer.contents buf in
      ignore (span "server_protocol.decode_response" (fun () ->
                  Server_protocol.decode_response s ~pos:0)))
    pats;
  let d name = Spans.durations sp name in
  let pair_us a b = median (Array.map2 (fun x y -> (x +. y) /. 1e3) (d a) (d b)) in
  let med_us name = median (d name) /. 1e3 in
  let req_us = pair_us "server_protocol.add_request" "server_protocol.decode_request" in
  let resp_us = pair_us "server_protocol.add_response" "server_protocol.decode_response" in
  let eval_us = med_us "bounded_sim.eval" and expand_us = med_us "compressed.expand_result" in
  let server_codec_us =
    med_us "server_protocol.decode_request" +. med_us "server_protocol.add_response"
  in
  let p50 = Serving.p (Serving.slices ws) 50. in
  let turnaround = Serving.across ws (fun w -> w.Serving.turnaround_us) in
  let cpu_per_query w = w.Serving.cpu_us /. float_of_int (Serving.answered w) in
  let cpu_on = Serving.across ws cpu_per_query in
  let cpu_off = Serving.across offs cpu_per_query in
  let traced_p50 =
    match Serving.slices ~traced:true ws with [] -> p50 | sls -> Serving.p sls 50.
  in
  let explained = req_us +. resp_us +. eval_us +. expand_us in
  ( !bad,
    [
      metric "codec.request_us" "us" req_us;
      metric "codec.response_us" "us" resp_us;
      metric "server.turnaround_us" "us" turnaround;
      metric "server.transport_us" "us" (p50 -. turnaround);
      metric "server.loop_us" "us"
        (turnaround -. server_codec_us -. eval_us -. expand_us);
      metric "server.cpu_us_per_query" "us" cpu_on;
      (* One pattern per frame, each evaluated on its own. *)
      metric "server.queries_per_dispatch" "count"
        (Serving.across ws (fun w ->
             float_of_int (Serving.answered w)
             /. float_of_int (Serving.stats_delta w "frames:")));
      metric "server.minor_gcs_per_kframe" "count"
        (Serving.across ws (fun w ->
             1000. *. float_of_int (Serving.stats_delta w "gc: minor")
             /. float_of_int (Serving.stats_delta w "frames:")));
      metric "obs.telemetry_cpu_pct" "%" (100. *. (cpu_on -. cpu_off) /. cpu_off);
      metric "query.eval_us" "us" eval_us;
      metric "compressed.map_us" "us" expand_us;
      metric "query.answer_count" "count" (float_of_int !pairs);
      metric "engine.build_s" "s" build_s;
      metric "snapshot.open_ms" "ms" open_ms;
      metric "snapshot.bytes_per_edge" "B" bytes_per_edge;
      metric "trace.serve_overhead_pct" "%" (100. *. (traced_p50 -. p50) /. p50);
      metric "attrib.p50_explained_pct" "%" (100. *. explained /. p50);
      metric "attrib.p50_residual_us" "us" (p50 -. explained);
    ] )

let run (ctx : Ctx.t) =
  (* While serving, the client process stays on one domain, like the
     daemons, and the write path's rounds between the daemons run at
     nproc domains (see Reach_workload.run). *)
  Pool.set_default_domains 1;
  let g = Ctx.stand_in ctx "Youtube-l" ~nodes:20_000 ~edges:102_000 in
  let snap = Ctx.path ctx "pattern.g" in
  Graph_io.save_binary ~format:Digraph.Flat snap g;
  let pats = patterns (Ctx.rng ctx 0x9A7) g in
  (* The oracle evaluates every pattern on the uncompressed graph. *)
  let t0 = now_ns () in
  let cache = Bounded_sim.make_cache g in
  let expected = Array.map (fun p -> Bounded_sim.eval ~cache p g) pats in
  Ctx.note "pattern: oracle on G, %d patterns in %.2fs" pool_patterns
    (s_of_ns (now_ns () - t0));
  let requests = Array.map (fun p -> Server_protocol.Match p) pats in
  let check i = function
    | Server_protocol.Matches r -> Pattern.result_equal r expected.(i)
    | _ -> false
  in
  let weight _ = 1 in
  let spans = if ctx.trace then Some ctx.spans else None in
  (* Set-up runs from spawn until the first pattern is answered: that
     answer forces the daemon's lazy compressB. *)
  let setup ?(extra = []) tag =
    let t0 = now_ns () in
    let d = Daemon.spawn ~qpgc:ctx.qpgc ~dir:ctx.dir ~tag ~snapshot:snap ~extra in
    let first_ok =
      Daemon.wait_ready d
      &&
      match Server_client.connect_unix d.Daemon.sock with
      | exception Unix.Unix_error _ -> false
      | c ->
          Fun.protect
            ~finally:(fun () -> Server_client.close c)
            (fun () ->
              match Server_client.request c requests.(0) with
              | r -> check 0 r
              | exception (Failure _ | Unix.Unix_error _) -> false)
    in
    if first_ok then Some (s_of_ns (now_ns () - t0), d)
    else begin
      Daemon.kill d;
      None
    end
  in
  let round ?extra ?spans ?traced_first tag =
    Option.bind (setup ?extra tag) (fun (setup_s, d) ->
        (* The traced run splits the same total window over twice the
           daemons. *)
        let share = if ctx.trace then 2 * daemons else daemons in
        Serving.measure ?spans ?traced_first ~daemon:d ~requests ~weight ~check
          ~slice ~warmup_s
          ~seconds:(ctx.seconds /. float_of_int share)
          ()
        |> Option.map (fun w -> (setup_s, w)))
  in
  (* The write path needs a graph where compressB and incPCM do real
     work. *)
  let gw = Ctx.stand_in ctx "Youtube-l" ~nodes:80_000 ~edges:410_000 in
  let wp = Write_path.create ctx Write_path.bisim gw in
  let write_rounds = Write_path.rounds_for ctx.seconds in
  (* A set-up costs a tenth of a second here, so before each measured
     round the untraced run also starts [extra_setups] daemons that
     answer their first pattern and are drained, and setup_s is a median
     over more samples.  The traced run interleaves telemetry-off daemons
     with the default ones (ABAB), so the telemetry CPU comparison sees
     the same drift.  The write path's rounds run between the daemons. *)
  let pinned = ref true in
  let per_daemon =
    List.init daemons (fun i ->
        if not (Serving.pin ()) then pinned := false;
        let setups =
          List.init (if ctx.trace then 0 else extra_setups) (fun j ->
              Option.bind (setup (Printf.sprintf "patternsetup%d_%d" i j))
                (fun (setup_s, d) -> if Daemon.stop d then Some setup_s else None))
        in
        let on =
          (true, round ?spans ~traced_first:(i mod 2 = 1) (Printf.sprintf "pattern%d" i))
        in
        let rounds =
          if ctx.trace then
            [ on; (false, round ~extra:telemetry_off (Printf.sprintf "patternoff%d" i)) ]
          else [ on ]
        in
        Serving.unpin ();
        for _ = 1 to Write_path.share ~rounds:write_rounds ~parts:daemons i do
          wp.round ()
        done;
        (setups, rounds))
  in
  let setup_only = List.concat_map fst per_daemon in
  let rounds = List.concat_map snd per_daemon in
  let ok = List.filter_map (fun (on, r) -> Option.map (fun r -> (on, r)) r) rounds in
  let all_ws = List.map (fun (_, (_, w)) -> w) ok in
  let ws = List.filter_map (fun (on, (_, w)) -> if on then Some w else None) ok in
  let offs = List.filter_map (fun (on, (_, w)) -> if on then None else Some w) ok in
  let setups =
    List.filter_map (fun (on, (s, _)) -> if on then Some s else None) ok
    @ List.filter_map Fun.id setup_only
  in
  let lost =
    List.length rounds - List.length ok
    + List.length (List.filter Option.is_none setup_only)
  in
  (* Each round also sent the set-up pattern; each set-up-only daemon got
     that pattern and a shutdown. *)
  let attempted =
    List.fold_left (fun a w -> a + Serving.ops w + 1) 0 all_ws
    + (2 * List.length setup_only) + lost
  in
  let failed = List.fold_left (fun a w -> a + Serving.failures w) 0 all_ws + lost in
  Serving.note_windows "pattern" ws;
  let sls = Serving.slices ws in
  let timed = List.fold_left (fun a sl -> a + Array.length sl.Serving.lat_us) 0 sls in
  Ctx.note "pattern: %d daemons, %d slices, %d timed patterns"
    (List.length ws) (List.length sls) timed;
  let served = ws <> [] && sls <> [] && ((not ctx.trace) || offs <> []) in
  let bad, serve_layers =
    if ctx.trace && served then layers ctx ~g ~snap ~pats ~expected ~ws ~offs
    else (0, [])
  in
  let vr = Digraph.n (Compressed.graph (Compress_bisim.compress g)) in
  let wp = wp.finish () in
  let attempted =
    attempted + wp.attempted + if ctx.trace then pool_patterns else 0
  in
  let failed = failed + bad + wp.failed in
  let stamp =
    [ ("V", string_of_int (Digraph.n g)); ("E", string_of_int (Digraph.m g));
      ("Vr", string_of_int vr); ("labels", string_of_int (Digraph.label_count g));
      ("daemon_domains", "1"); ("serving_pinned", string_of_bool !pinned);
      ("write_V", string_of_int (Digraph.n gw));
      ("write_E", string_of_int (Digraph.m gw)); ("write_Vr", string_of_int wp.vr);
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
        metric "setup_s" "s" (median_list setups);
        metric "rss_mb" "MB" (Serving.across ws (fun w -> w.Serving.rss_mb));
        metric "compress_s" "s" wp.compress_s;
        metric "update_ms" "ms" wp.update_ms;
      ]
    in
    { Ctx.attempted; failed; metrics; stamp }
  else { Ctx.attempted; failed; metrics = serve_layers @ wp.layers; stamp }
