(* The closed-loop client both serving workloads share: one blocking
   connection, one request in flight, like the daemon's real
   [Server_client] callers.  Every reply is checked against the oracle
   the workload computed beforehand; an error reply, a wrong answer or a
   broken connection counts as a failed operation. *)

open Pb_util

external set_affinity : int -> bool = "perfbench_set_affinity"

(* While serving, the client and its daemons share one CPU.  A closed
   loop with one request in flight never runs both at once, and on a
   shared host a round trip between two CPUs pays for waking the idle
   one: under host load that wake-up tripled p90 while compute-bound
   figures moved by a fifth.  [pin ()] must come before the daemons are
   spawned, which inherit the mask; [unpin ()] before the write path
   spawns its worker domains.  [pin] returns whether the call took. *)
let serving_cpu = Domain.recommended_domain_count () - 1
let pin () = set_affinity serving_cpu
let unpin () = ignore (set_affinity (-1))

(* A slice is a fixed number of consecutive requests, a whole number of
   passes over the workload's request pool, so every slice carries
   exactly the same query mix.  The window closes on the slice boundary
   nearest the deadline, so it lasts [seconds] give or take half a
   slice.  In the traced run
   slices alternate between sending with and without a client span. *)
type slice = {
  lat_us : float array;  (** sorted round trips *)
  answered : int;  (** queries answered correctly (pairs or patterns) *)
  elapsed_s : float;
  traced : bool;  (** sent with a client span around every request *)
}

type loop = {
  slices : slice list;
  sent : int;
  failed : int;
  broken : bool;  (** the connection failed; the daemon may be gone *)
}

(* The traced run's alternation puts the slices with and without client
   spans in the same daemon and time span, so their medians give the
   tracing overhead; consecutive daemons start on opposite kinds, so even
   one-slice windows give both. *)
let drive ?spans ?(traced_first = false) ~conn ~requests ~weight ~check ~seconds
    ~slice ~first () =
  let n = Array.length requests in
  let lat = Array.make slice 0. in
  let nl = ref 0 and answered = ref 0 in
  let slices = ref [] and nslices = ref 0 in
  let sent = ref 0 and failed = ref 0 and broken = ref false in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let slice_start = ref (now_ns ()) and slice_sent = ref 0 in
  let last_slice_ns = ref 0 in
  let traced () = Option.is_some spans && (!nslices mod 2 = 1) <> traced_first in
  let close_slice () =
    slices :=
      {
        lat_us = sorted_copy (Array.sub lat 0 !nl);
        answered = !answered;
        elapsed_s = s_of_ns (now_ns () - !slice_start);
        traced = traced ();
      }
      :: !slices;
    incr nslices;
    last_slice_ns := now_ns () - !slice_start;
    nl := 0;
    answered := 0;
    slice_sent := 0;
    slice_start := now_ns ()
  in
  let k = ref first in
  let go_on () =
    !slice_sent > 0 || !nslices = 0 || now_ns () + (!last_slice_ns / 2) < deadline
  in
  while (not !broken) && go_on () do
    let i = !k mod n in
    let sp =
      match spans with
      | Some s when traced () -> Spans.enter s "client.request" ~op:!k
      | _ -> -1
    in
    let t0 = now_ns () in
    let reply =
      match Server_client.request conn requests.(i) with
      | r -> Some r
      | exception (Failure _ | Unix.Unix_error _ | Server_protocol.Parse_error _)
        ->
          None
    in
    let t1 = now_ns () in
    (match spans with Some s when sp >= 0 -> Spans.leave s sp | _ -> ());
    incr sent;
    incr slice_sent;
    incr k;
    (match reply with
    | None ->
        incr failed;
        broken := true
    | Some r ->
        if check i r then begin
          answered := !answered + weight i;
          lat.(!nl) <- us_of_ns (t1 - t0);
          incr nl
        end
        else incr failed);
    if !slice_sent = slice then close_slice ()
  done;
  { slices = List.rev !slices; sent = !sent; failed = !failed; broken = !broken }

type window = {
  loop : loop;
  warm_sent : int;
  warm_failed : int;
  cpu_us : float;  (** daemon utime+stime over the timed window *)
  stats_before : string;
  stats_after : string;
  turnaround_us : float;  (** daemon-side p50 per frame over the window *)
  rss_mb : float;  (** daemon VmHWM before shutdown *)
  clean_exit : bool;
}

let ops w = w.warm_sent + w.loop.sent + 1 (* the shutdown *)
let failures w = w.warm_failed + w.loop.failed + if w.clean_exit then 0 else 1

let latency_family = "qpgc_server_latency_us"

(* Warms a ready daemon up for [warmup_s], measures one window of
   [seconds], then drains it.  Returns [None] (after killing the daemon)
   when the connection or a verb fails outside the loops. *)
let measure ?spans ?traced_first ~daemon ~requests ~weight ~check ~slice ~warmup_s
    ~seconds () =
  match Server_client.connect_unix daemon.Daemon.sock with
  | exception Unix.Unix_error _ ->
      Daemon.kill daemon;
      None
  | conn -> (
      let close () = try Server_client.close conn with _ -> () in
      match
        let warm =
          drive ~conn ~requests ~weight ~check ~seconds:warmup_s ~slice:1 ~first:0 ()
        in
        if warm.broken then failwith "warm-up broke the connection";
        let stats_before = Server_client.stats conn in
        let hist_before =
          histogram_buckets (Server_client.metrics conn) latency_family
        in
        let cpu_before = Daemon.cpu_ticks daemon in
        let loop =
          drive ?spans ?traced_first ~conn ~requests ~weight ~check ~seconds
            ~slice ~first:warm.sent ()
        in
        if loop.broken then failwith "the timed window broke the connection";
        let cpu_after = Daemon.cpu_ticks daemon in
        let stats_after = Server_client.stats conn in
        let hist_after =
          histogram_buckets (Server_client.metrics conn) latency_family
        in
        let rss_kb = Daemon.vmhwm_kb daemon in
        (warm, loop, stats_before, stats_after, hist_before, hist_after,
         cpu_after - cpu_before, rss_kb)
      with
      | exception (Failure _ | Unix.Unix_error _ | Server_protocol.Parse_error _
                  | Sys_error _ | Scanf.Scan_failure _ | End_of_file) ->
          close ();
          Daemon.kill daemon;
          None
      | warm, loop, stats_before, stats_after, hist_before, hist_after, ticks,
        rss_kb ->
          close ();
          let clean_exit = Daemon.stop daemon in
          let turnaround_us =
            histogram_quantile
              (histogram_delta ~before:hist_before ~after:hist_after)
              0.5
            |> Option.value ~default:0.
          in
          Some
            {
              loop;
              warm_sent = warm.sent;
              warm_failed = warm.failed;
              cpu_us = float_of_int ticks *. us_per_tick;
              stats_before;
              stats_after;
              turnaround_us;
              rss_mb = float_of_int rss_kb /. 1024.;
              clean_exit;
            })

(* The untraced (or, with [~traced:true], traced) slices of all windows. *)
let slices ?(traced = false) ws =
  List.concat_map
    (fun w -> List.filter (fun sl -> sl.traced = traced) w.loop.slices)
    ws

(* Queries per second and round-trip percentiles over the given slices,
   pooled. *)
let qps sls =
  let n = List.fold_left (fun a sl -> a + sl.answered) 0 sls in
  float_of_int n /. List.fold_left (fun a sl -> a +. sl.elapsed_s) 0. sls

let p sls pct =
  percentile (sorted_copy (Array.concat (List.map (fun sl -> sl.lat_us) sls))) pct

let answered w = List.fold_left (fun a sl -> a + sl.answered) 0 w.loop.slices

let stats_delta w key =
  line_int w.stats_after key - line_int w.stats_before key

(* One line per daemon window, so a reader can tell a slow daemon from a
   slow run. *)
let note_windows name ws =
  List.iteri
    (fun i w ->
      let sls = List.filter (fun sl -> not sl.traced) w.loop.slices in
      if sls <> [] then
        Ctx.note "%s daemon %d: qps %.1f, p50 %.1f us, p90 %.1f us, turnaround p50 %.1f us, %d slices"
          name i (qps sls) (p sls 50.) (p sls 90.) w.turnaround_us (List.length sls))
    ws

(* Medians across the run's daemons of a per-daemon figure. *)
let across ws f = median (Array.of_list (List.map f ws))
