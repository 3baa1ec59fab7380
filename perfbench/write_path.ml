(* The write path of a workload, in-process with the Pool at nproc
   domains: each round compresses the current graph from scratch, then
   feeds one seeded mixed ∆G batch through the scheme's incremental
   maintenance (incRCM for reachability, incPCM for patterns).  The
   from-scratch compressions double as the oracle: from the second round
   on, the maintained Gr must have exactly the node partition of the
   from-scratch one, and after the last batch one more recompression
   checks the final state.  Every check runs outside the timed calls. *)

open Pb_util

let batch_updates = 500

(* An untraced round repeats the from-scratch compression until its
   calls add up to this much time, so a scheme whose compression is
   short (compressB, a few tenths of a second here) still gets enough
   samples for a steady median. *)
let compress_budget_s = 0.75

(* A fixed, seed-determined sequence of batches: the round count
   depends only on --seconds, so the count metrics repeat exactly. *)
let rounds_for seconds = max 2 (int_of_float (seconds /. 2.))

(* The rounds a workload runs after the [i]th of [parts] serving
   windows, so that the write path's samples spread over the whole run,
   like the serving ones: the machine's speed wanders over seconds, and
   samples taken in one stretch would all share its phase. *)
let share ~rounds ~parts i = (rounds * (i + 1) / parts) - (rounds * i / parts)

(* The phases and the whole call run back to back in each traced round,
   so their ratio should be 1; this is how far its median may stray:
   15% of the whole call, or 25 ms where that is more.  Calls of a few
   milliseconds (the tests' tiny inputs) on a busy machine jitter by far
   more than 15%; the benchmark's calls take 0.3 s and up, where 15%
   governs. *)
let attribution_tolerance_pct = 15.
let attribution_floor_ms = 25.

(* [attribution_within pct whole_s]: is a share of [pct]% of a whole call
   of [whole_s] seconds within the tolerance? *)
let attribution_within pct whole_s =
  Float.abs (pct -. 100.) /. 100. *. whole_s
  <= Float.max (attribution_tolerance_pct /. 100. *. whole_s) (attribution_floor_ms /. 1e3)

(* The incrementally maintained compression, whichever scheme. *)
type tracked = {
  apply : Edge_update.t list -> unit;
  compressed : unit -> Compressed.t;
  graph : unit -> Digraph.t;
  last_stats : unit -> (int * int * int * int) option;
      (** kept, dropped, region size, affected members *)
}

type scheme = {
  compress : Digraph.t -> Compressed.t;
  (* The two phases of [compress] through their public entry points:
     [phases g] computes the equivalence and returns the quotient step. *)
  partition_span : string;
  quotient_span : string;
  phases : Digraph.t -> unit -> Compressed.t;
  track : Digraph.t -> Compressed.t -> tracked;
}

let reach =
  {
    compress = (fun g -> Compress_reach.compress g);
    partition_span = "reach_equiv.compute";
    quotient_span = "compress_reach.compress_of_equiv";
    phases =
      (fun g ->
        let re = Reach_equiv.compute g in
        fun () -> Compress_reach.compress_of_equiv g re);
    track =
      (fun g c ->
        let t = Inc_reach.of_compressed g c in
        {
          apply = (fun b -> ignore (Inc_reach.apply t b));
          compressed = (fun () -> Inc_reach.compressed t);
          graph = (fun () -> Inc_reach.graph t);
          last_stats =
            (fun () ->
              Option.map
                (fun (s : Inc_reach.stats) ->
                  (s.updates_kept, s.updates_dropped, s.region_size, s.affected_members))
                (Inc_reach.last_stats t));
        });
  }

let bisim =
  {
    compress = (fun g -> Compress_bisim.compress g);
    partition_span = "bisimulation.max_bisimulation";
    quotient_span = "compress_bisim.compress_of_partition";
    phases =
      (fun g ->
        let part = Bisimulation.max_bisimulation g in
        fun () -> Compress_bisim.compress_of_partition g part);
    track =
      (fun g c ->
        let t = Inc_bisim.of_compressed g c in
        {
          apply = (fun b -> ignore (Inc_bisim.apply t b));
          compressed = (fun () -> Inc_bisim.compressed t);
          graph = (fun () -> Inc_bisim.graph t);
          last_stats =
            (fun () ->
              Option.map
                (fun (s : Inc_bisim.stats) ->
                  (s.updates_kept, s.updates_dropped, s.region_size, s.affected_members))
                (Inc_bisim.last_stats t));
        });
  }

(* Node partitions compared up to block renaming. *)
let canonical node_map =
  let seen = Hashtbl.create 1024 in
  Array.map
    (fun b ->
      match Hashtbl.find_opt seen b with
      | Some c -> c
      | None ->
          let c = Hashtbl.length seen in
          Hashtbl.add seen b c;
          c)
    node_map

let same_partition a b =
  canonical a.Compressed.node_map = canonical b.Compressed.node_map

let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, now_ns () - t0)

type result = {
  attempted : int;
  failed : int;
  compress_s : float;  (** median from-scratch compression *)
  update_ms : float;  (** median incremental batch *)
  layers : metric list;  (** the traced run's write-path layer metrics *)
  vr : int;  (** |Vr| of the initial graph's compression *)
}

type t = { round : unit -> unit; finish : unit -> result }

(* [create ctx scheme g0] prepares the write path on [g0].  Each
   [round ()] runs one round at nproc domains and drops back to one
   domain, the serving client's setting; [finish ()] runs the final
   oracle and returns the figures. *)
let create (ctx : Ctx.t) scheme g0 =
  let nproc = Domain.recommended_domain_count () in
  let sp = ctx.spans in
  let rng = Ctx.rng ctx 0xD17A in
  let compress_ns = ref [] and update_ns = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let check ok =
    incr attempted;
    if not ok then incr failed
  in
  let layer_ns = Hashtbl.create 16 in
  let add_layer name dt =
    Hashtbl.replace layer_ns name
      (float_of_int dt :: Option.value (Hashtbl.find_opt layer_ns name) ~default:[])
  in
  let sp_t ~op name f =
    let v, dt = timed (fun () -> Spans.span sp name ~op f) in
    add_layer name dt;
    (v, dt)
  in
  let inc_stats = ref [] and gc_words = ref [] in
  let ratios = ref [] and overheads = ref [] in
  let tracked = ref None and g = ref g0 and next = ref 0 in
  let round () =
    let round = !next in
    incr next;
    Pool.set_default_domains nproc;
    let cur = !g in
    (* The whole call, as every run makes it. *)
    let whole ~traced =
      let w0 = (Gc.quick_stat ()).Gc.minor_words in
      let c, dt =
        timed (fun () ->
            if traced then Spans.span sp "compress" ~op:round (fun () -> scheme.compress cur)
            else scheme.compress cur)
      in
      (c, dt, (Gc.quick_stat ()).Gc.minor_words -. w0)
    in
    let c, dt, words =
      if not ctx.trace then whole ~traced:false
      else begin
        (* The traced run also times the two phases, and makes the whole
           call twice: once inside a span, once bare.  The phases run
           between the two, whose order alternates by round, so a steady
           drift of the machine's speed cancels out of both ratios: the
           spanned call over the bare one is the tracing overhead, and
           the phases over the mean of the two are the attribution.
           Each step starts from a collected heap, so none pays for
           another's garbage. *)
        let bare () = Gc.full_major (); whole ~traced:false in
        let spanned () =
          Gc.full_major ();
          let _, dt, _ = whole ~traced:true in
          dt
        in
        let phases () =
          Gc.full_major ();
          let quotient, d_part = sp_t ~op:round scheme.partition_span (fun () -> scheme.phases cur) in
          let _, d_quot = sp_t ~op:round scheme.quotient_span quotient in
          d_part + d_quot
        in
        let first = if round mod 2 = 0 then `Spanned (spanned ()) else `Bare (bare ()) in
        let p = phases () in
        let ((_, d, _) as b), s =
          match first with
          | `Spanned s -> (bare (), s)
          | `Bare b -> (b, spanned ())
        in
        overheads := (float_of_int s /. float_of_int d) :: !overheads;
        ratios := (2. *. float_of_int p /. float_of_int (s + d)) :: !ratios;
        ignore (sp_t ~op:round "scc.compute" (fun () -> Scc.compute cur));
        b
      end
    in
    compress_ns := float_of_int dt :: !compress_ns;
    if not ctx.trace then begin
      let spent = ref dt in
      while s_of_ns !spent < compress_budget_s do
        let _, dt, _ = whole ~traced:false in
        compress_ns := float_of_int dt :: !compress_ns;
        spent := !spent + dt
      done
    end;
    gc_words := (words /. float_of_int (Digraph.m cur)) :: !gc_words;
    let t =
      match !tracked with
      | None ->
          let t = scheme.track cur c in
          tracked := Some t;
          t
      | Some t ->
          check (same_partition (t.compressed ()) c);
          t
    in
    let batch = Update_gen.mixed rng cur ~count:batch_updates ~insert_frac:0.5 in
    (* The oracle for the maintained graph, outside the timed call. *)
    let expected, _ =
      sp_t ~op:round "edge_update.apply" (fun () -> Edge_update.apply cur batch)
    in
    let (), dt = timed (fun () -> t.apply batch) in
    update_ns := float_of_int dt :: !update_ns;
    Option.iter (fun s -> inc_stats := s :: !inc_stats) (t.last_stats ());
    check (Digraph.equal (t.graph ()) expected);
    g := t.graph ();
    Pool.set_default_domains 1;
    (* The serving client that runs next starts from a compact heap. *)
    Gc.compact ()
  in
  let finish () =
    Pool.set_default_domains nproc;
    (* Final oracle: the maintained Gr after the last batch against a
       from-scratch compression of the updated graph. *)
    (match !tracked with
    | Some t -> check (same_partition (t.compressed ()) (scheme.compress !g))
    | None -> check false);
    let med l = median (Array.of_list l) in
    let compress_s = med !compress_ns /. 1e9 and update_ms = med !update_ns /. 1e6 in
    let vr = Digraph.n (Compressed.graph (scheme.compress g0)) in
    Ctx.note "write path: %d rounds, %d compressions, %d batches of %d updates, %d checks, compress %.3f s, update %.1f ms"
      !next (List.length !compress_ns) (List.length !update_ns) batch_updates !attempted
      compress_s update_ms;
    let layers =
      if not ctx.trace then []
      else begin
        let layer name = med (Option.value (Hashtbl.find_opt layer_ns name) ~default:[ 0. ]) in
        let speedup =
          Pool.set_default_domains 1;
          let (_ : Compressed.t), d1 =
            timed (fun () ->
                Spans.span sp "compress.one_domain" ~op:0 (fun () -> scheme.compress g0))
          in
          Pool.set_default_domains nproc;
          float_of_int d1 /. (compress_s *. 1e9)
        in
        (* Counts summed over the batches: (kept, dropped, region, members). *)
        let sum f = float_of_int (List.fold_left (fun a s -> a + f s) 0 !inc_stats) in
        let k = sum (fun (k, _, _, _) -> k) and d = sum (fun (_, d, _, _) -> d) in
        let explained = 100. *. med !ratios in
        (* A share outside the stated tolerance fails the traced run. *)
        let ok = attribution_within explained compress_s in
        check ok;
        Ctx.note "attribution: phases explain %.1f%% of compress_s (%s the +-%.0f%% or %.0f ms tolerance)"
          explained (if ok then "within" else "OUTSIDE")
          attribution_tolerance_pct attribution_floor_ms;
        [
          metric "scc.compute_s" "s" (layer "scc.compute" /. 1e9);
          metric "partition.compute_s" "s" (layer scheme.partition_span /. 1e9);
          metric "quotient.build_s" "s" (layer scheme.quotient_span /. 1e9);
          metric "edge_update.apply_ms" "ms" (layer "edge_update.apply" /. 1e6);
          metric "inc.kept_ratio" "ratio" (if k +. d = 0. then 1. else k /. (k +. d));
          metric "inc.region_size" "count" (sum (fun (_, _, r, _) -> r));
          metric "inc.affected_members" "count" (sum (fun (_, _, _, m) -> m));
          metric "inc.vs_recompress" "ratio" (update_ms /. 1e3 /. compress_s);
          metric "gc.compress_minor_words_per_edge" "words" (med !gc_words);
          metric "pool.compress_speedup" "ratio" speedup;
          metric "trace.compress_overhead_pct" "%" (100. *. (med !overheads -. 1.));
          metric "attrib.compress_explained_pct" "%" explained;
        ]
      end
    in
    { attempted = !attempted; failed = !failed; compress_s; update_ms; layers; vr }
  in
  { round; finish }
