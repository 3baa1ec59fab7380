(* The serving loop.  See the .mli for the architecture overview.

   Single-threaded [select] over all sockets; parallelism lives inside
   the engine's [eval_batch] (the Pool domains), not in the I/O layer, so
   connection state needs no locks.  Each cycle is parse -> one coalesced
   eval -> reply -> flush; replies preserve per-connection FIFO order
   because items are appended in parse order and written back in the same
   order. *)

module SP = Server_protocol

(* ------------------------------------------------------------------ *)
(* Metrics, registered once at module init *)

let m_connections = Obs.counter "server.connections"
let m_frames = Obs.counter "server.frames"
let m_malformed = Obs.counter "server.malformed"
let m_queries = Obs.counter "server.queries"
let m_batches = Obs.counter "server.batches"
let m_scrapes = Obs.counter "server.scrapes"
let h_batch = Obs.histogram "server.batch_size"
let h_queue = Obs.histogram "server.queue_depth"

(* Point-in-time gauges, refreshed once per loop cycle; their merge is
   last-writer-wins, so a future multi-domain server can refresh them
   from any domain without double-counting. *)
let g_conns = Obs.gauge "server.connections_open"
let g_queue = Obs.gauge "server.queue_depth_last"

(* 1 us .. ~1 s in powers of two; per-frame turnaround. *)
let h_latency =
  Obs.histogram
    ~buckets:(Array.init 21 (fun i -> float_of_int (1 lsl i)))
    "server.latency_us"

(* ------------------------------------------------------------------ *)
(* Engines *)

type engine = {
  info : string;
  route : string;
  describe : string;
  node_bound : int;
  eval_batch : (int * int) array -> bool array;
  eval_pattern : (Pattern.t -> Pattern.result) option;
}

let engine_info e = e.info
let engine_route e = e.route
let engine_describe e = e.describe
let node_bound e = e.node_bound
let eval e pairs = e.eval_batch pairs

let engine_of_graph ?pool ?index g =
  let planner = Planner.create ?pool ?index g in
  let bisim = lazy (Compress_bisim.compress ?pool g) in
  {
    info =
      Printf.sprintf "graph, %d node(s), %d edge(s), %s backend" (Digraph.n g)
        (Digraph.m g) (Digraph.backend_name g);
    route = Planner.route_name (Planner.route planner);
    describe = Planner.describe planner;
    node_bound = Digraph.n g;
    eval_batch = (fun pairs -> Planner.eval_batch ?pool planner pairs);
    eval_pattern = Some (fun p -> Compress_bisim.answer p (Lazy.force bisim));
  }

let engine_of_compressed ?pool c =
  let idx = Compress_reach.index ?pool c in
  {
    info =
      Printf.sprintf "compressed snapshot, %d hypernode(s) for %d original node(s)"
        (Compressed.size c) (Compressed.original_n c);
    route = "index";
    describe =
      Printf.sprintf "%s index over the %d-hypernode compression"
        (Reach_index.algorithm_name (Reach_index.algorithm idx))
        (Compressed.size c);
    node_bound = Compressed.original_n c;
    eval_batch = (fun pairs -> Reach_index.query_batch ?pool idx pairs);
    eval_pattern = Some (fun p -> Compress_bisim.answer p c);
  }

let engine_of_index ?pool idx =
  let name = Reach_index.algorithm_name (Reach_index.algorithm idx) in
  {
    info =
      Printf.sprintf "%s index snapshot, %d indexed node(s) for %d original node(s)"
        name (Reach_index.indexed_n idx)
        (Reach_index.original_n idx);
    route = "index";
    describe = Printf.sprintf "%s index, %d byte(s)" name (Reach_index.memory_bytes idx);
    node_bound = Reach_index.original_n idx;
    eval_batch = (fun pairs -> Reach_index.query_batch ?pool idx pairs);
    eval_pattern = None;
  }

(* The snapshot's kind byte decides the loader.  Every graph that opened
   on the mapped backend is validated once here, before the engine
   serves a query (and so before the ready signal). *)
let load_engine ?pool ?(mmap = true) ?index_file path =
  let load_index f =
    let idx = Reach_index_io.load ~mmap f in
    Reach_index_io.check_mapped idx;
    idx
  in
  let index = Option.map load_index index_file in
  let reject_index what =
    if Option.is_some index then
      invalid_arg
        (Printf.sprintf
           "Server.load_engine: an index file cannot be combined with a %s snapshot"
           what)
  in
  let of_compressed c =
    reject_index "compressed";
    Graph_io.check_mapped (Compressed.graph c);
    engine_of_compressed ?pool c
  in
  match Graph_io.sniff path with
  | Some 'C' -> of_compressed (Compressed_io.load ~mmap path)
  | Some 'I' ->
      reject_index "index";
      engine_of_index ?pool (load_index path)
  | Some _ ->
      let g, _labels = Graph_io.load ~mmap path in
      Graph_io.check_mapped g;
      engine_of_graph ?pool ?index g
  | None -> (
      (* A text snapshot carries no kind byte.  The compression text
         format strictly extends the graph records with 'o'/'m' lines
         after the edges, so a text .qc fails the graph parser exactly
         at its first 'o' line — retry those as a compression.  When
         both parsers reject the file, report the error of the one that
         got further into it. *)
      match Graph_io.load ~mmap path with
      | g, _labels -> engine_of_graph ?pool ?index g
      | exception (Graph_io.Parse_error (graph_line, _) as graph_err) -> (
          match Compressed_io.load ~mmap path with
          | c -> of_compressed c
          | exception Compressed_io.Parse_error (comp_line, _)
            when comp_line <= graph_line ->
              raise graph_err))

(* ------------------------------------------------------------------ *)
(* Connections and serving state *)

type listener = Unix_socket of string | Tcp of { host : string; port : int }

type totals = {
  accepted : int;
  frames : int;
  malformed : int;
  queries : int;
  batches : int;
}

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;  (* bytes received, not yet parsed *)
  out : Buffer.t;  (* encoded replies, flushed from [out_ofs] *)
  mutable out_ofs : int;
  mutable closing : bool;  (* close once [out] is flushed *)
}

type state = {
  engine : engine;
  max_frame : int;
  queue_max : int;
  batch_max : int;
  started_ns : int;
  slow_ns : int;  (* flight-recorder threshold *)
  sample_every : int;  (* 1-in-N below-threshold sampling; 0 = off *)
  flight : Obs.Ring.t;
  flight_file : string;  (* SIGUSR1 dump target *)
  w_queries : Obs.Window.t;  (* rolling qps *)
  w_latency : Obs.Window.t;  (* rolling p50/p99 *)
  frame_hook : (SP.request -> unit) option;  (* test-only latency injection *)
  mutable conns : conn list;
  mutable hconns : conn list;  (* HTTP scrape connections, one-shot *)
  mutable lfds : Unix.file_descr list;
  mutable http_lfds : Unix.file_descr list;
  mutable ready : bool;  (* listeners bound, engine resident *)
  mutable draining : bool;
  mutable accepted : int;
  mutable scrapes : int;
  mutable frames : int;
  mutable malformed : int;
  mutable queries : int;
  mutable batches : int;
  mutable next_trace : int;  (* per-frame trace ids, 1-based *)
  mutable last_depth : int;  (* items in the last dispatch cycle *)
  mutable cleanup : (unit -> unit) list;  (* unlink unix socket paths *)
}

(* Reads pause on a connection holding this much unflushed output. *)
let out_high_water = 1 lsl 20

let out_pending c = Buffer.length c.out - c.out_ofs

let pending_frame st c =
  (not c.closing)
  && Buffer.length c.inbuf >= 4
  && SP.frame_ready ~max_frame:st.max_frame (Buffer.contents c.inbuf) ~pos:0

let stats_text st =
  let b = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "graph: %s" st.engine.info;
  line "engine: %s" st.engine.describe;
  line "route: %s" st.engine.route;
  line "domains: %d" (Pool.domains (Pool.default ()));
  line "connections: %d open, %d accepted" (List.length st.conns) st.accepted;
  line "frames: %d ok, %d malformed" st.frames st.malformed;
  line "queries: %d" st.queries;
  line "batches: %d" st.batches;
  let q p =
    match Obs.Metrics.find "server.latency_us" with
    | None -> "n/a"
    | Some v -> (
        match Obs.Metrics.quantile v p with
        | None -> "n/a"
        | Some x -> Printf.sprintf "%.0f" x)
  in
  line "latency_us: p50 %s, p99 %s" (q 0.5) (q 0.99);
  let uptime = Obs.Clock.elapsed_s st.started_ns in
  line "uptime_s: %.1f" uptime;
  line "qps: %.1f" (float_of_int st.queries /. Float.max uptime 1e-9);
  let win = Printf.sprintf "%.0fs" (Obs.Window.window_seconds st.w_queries) in
  line "qps_%s: %.1f" win
    (Option.value (Obs.Window.rate st.w_queries) ~default:0.0);
  let wq p =
    match Obs.Window.quantile st.w_latency p with
    | None -> "n/a"
    | Some x -> Printf.sprintf "%.0f" x
  in
  line "latency_us_%s: p50 %s, p99 %s" win (wq 0.5) (wq 0.99);
  line "queue_depth: %d" st.last_depth;
  line "scrapes: %d" st.scrapes;
  line "flight: %d recorded, %d capacity, slow_us %.0f"
    (Obs.Ring.recorded st.flight)
    (Obs.Ring.capacity st.flight)
    (float_of_int st.slow_ns /. 1e3);
  let gc = Gc.quick_stat () in
  line "gc: minor %d, major %d, heap_words %d" gc.minor_collections
    gc.major_collections gc.heap_words;
  Buffer.contents b

(* The Prometheus dump plus the rolling-window families the lifetime
   registry cannot answer: current qps and current latency quantiles.
   Served by both the 'M' verb and GET /metrics. *)
let metrics_text st =
  let b = Buffer.create 2048 in
  Buffer.add_string b (Obs.prometheus ());
  let win = Printf.sprintf "%.0fs" (Obs.Window.window_seconds st.w_queries) in
  let gauge name v =
    Buffer.add_string b
      (Printf.sprintf "# TYPE %s gauge\n%s %s\n" name name
         (Obs_export.float_str v))
  in
  gauge
    (Printf.sprintf "qpgc_server_qps_%s" win)
    (Option.value (Obs.Window.rate st.w_queries) ~default:0.0);
  gauge
    (Printf.sprintf "qpgc_server_latency_us_p50_%s" win)
    (Option.value (Obs.Window.quantile st.w_latency 0.5) ~default:0.0);
  gauge
    (Printf.sprintf "qpgc_server_latency_us_p99_%s" win)
    (Option.value (Obs.Window.quantile st.w_latency 0.99) ~default:0.0);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* The parse -> eval -> reply cycle *)

(* Work discovered during the parse phase, in per-connection arrival
   order.  [Slice] points into the cycle's coalesced answer array.  Every
   frame — well-formed or not — carries a [meta] with its daemon-unique
   trace id, so the flight recorder can name it. *)
type meta = { trace : int; verb : char; batch : int }

type item =
  | Ready of conn * SP.response * int * meta  (* response, start ns *)
  | Slice of conn * int * int * int * meta  (* offset, length, start ns *)

let verb_char = function
  | SP.Reach _ -> 'R'
  | SP.Match _ -> 'P'
  | SP.Stats -> 'S'
  | SP.Metrics -> 'M'
  | SP.Dump -> 'D'
  | SP.Shutdown -> 'X'

let handle_request st items pairs_rev pairs_len c req t0 m =
  let push i = items := i :: !items in
  (match st.frame_hook with Some f -> f req | None -> ());
  match req with
  | SP.Reach pairs ->
      let bound = st.engine.node_bound in
      let bad = ref (-1) in
      Array.iteri
        (fun i (u, v) -> if !bad < 0 && (u >= bound || v >= bound) then bad := i)
        pairs;
      if !bad >= 0 then
        push
          (Ready
             ( c,
               SP.Error
                 (Printf.sprintf "query %d: node id out of range (node count %d)"
                    !bad bound),
               t0, m ))
      else begin
        let off = !pairs_len in
        pairs_rev := pairs :: !pairs_rev;
        pairs_len := off + Array.length pairs;
        push (Slice (c, off, Array.length pairs, t0, m))
      end
  | SP.Match p -> (
      match st.engine.eval_pattern with
      | None ->
          push
            (Ready
               ( c,
                 SP.Error
                   "pattern queries are not supported over a bare index snapshot",
                 t0, m ))
      | Some f ->
          let resp =
            match f p with
            | r -> SP.Matches r
            | exception ((Stack_overflow | Out_of_memory) as e) -> raise e
            | exception e ->
                SP.Error ("pattern evaluation failed: " ^ Printexc.to_string e)
          in
          push (Ready (c, resp, t0, m)))
  | SP.Stats -> push (Ready (c, SP.Text (stats_text st), t0, m))
  | SP.Metrics -> push (Ready (c, SP.Text (metrics_text st), t0, m))
  | SP.Dump ->
      push (Ready (c, SP.Text (Obs.Ring.to_chrome_json st.flight), t0, m))
  | SP.Shutdown ->
      Obs.Log.info "draining" ~fields:[ ("reason", Obs.Log.Str "shutdown verb") ];
      st.draining <- true;
      push (Ready (c, SP.Text "draining", t0, m))

let parse_conn st items pairs_rev pairs_len c =
  if Buffer.length c.inbuf > 0 && not c.closing then begin
    let data = Buffer.contents c.inbuf in
    let len = String.length data in
    let pos = ref 0 in
    let parsed = ref 0 in
    let stop = ref false in
    let fresh_meta verb batch =
      st.next_trace <- st.next_trace + 1;
      { trace = st.next_trace; verb; batch }
    in
    while (not !stop) && !parsed < st.queue_max do
      match SP.decode_request ~max_frame:st.max_frame data ~pos:!pos with
      | None -> stop := true
      | Some (decoded, next) ->
          let t0 = Obs.Clock.now_ns () in
          (match decoded with
          | SP.Malformed msg ->
              st.malformed <- st.malformed + 1;
              Obs.incr m_malformed;
              items :=
                Ready
                  (c, SP.Error ("malformed frame: " ^ msg), t0, fresh_meta '?' 0)
                :: !items
          | SP.Frame req ->
              st.frames <- st.frames + 1;
              Obs.incr m_frames;
              let batch =
                match req with SP.Reach pairs -> Array.length pairs | _ -> 0
              in
              let m = fresh_meta (verb_char req) batch in
              handle_request st items pairs_rev pairs_len c req t0 m);
          pos := next;
          incr parsed
      | exception SP.Parse_error (_, msg) ->
          (* The length prefix itself lied: reply, then drop the
             connection — the stream cannot be resynchronised. *)
          st.malformed <- st.malformed + 1;
          Obs.incr m_malformed;
          items :=
            Ready (c, SP.Error msg, Obs.Clock.now_ns (), fresh_meta '?' 0)
            :: !items;
          c.closing <- true;
          pos := len;
          stop := true
    done;
    if !parsed > 0 then Obs.observe h_queue (float_of_int !parsed);
    if !pos > 0 then begin
      let rest = len - !pos in
      Buffer.clear c.inbuf;
      if rest > 0 then Buffer.add_substring c.inbuf data !pos rest
    end
  end

let run_batches st pairs answers =
  let total = Array.length pairs in
  let off = ref 0 in
  while !off < total do
    let k = min st.batch_max (total - !off) in
    let chunk = Array.sub pairs !off k in
    let a = st.engine.eval_batch chunk in
    Array.blit a 0 answers !off k;
    st.batches <- st.batches + 1;
    st.queries <- st.queries + k;
    Obs.incr m_batches;
    Obs.add m_queries k;
    Obs.observe h_batch (float_of_int k);
    off := !off + k
  done

(* Flight-recorder policy: every frame at or above the slow threshold is
   recorded; below it a deterministic 1-in-N sample (by trace id) keeps a
   baseline of normal traffic in the ring. *)
let record_flight st m ~t0 ~dur_ns ~depth =
  if dur_ns >= st.slow_ns then
    Obs.Ring.record st.flight ~id:m.trace ~verb:m.verb ~batch:m.batch
      ~queue:depth ~ts_ns:t0 ~dur_ns ~sampled:false
  else if st.sample_every > 0 && m.trace mod st.sample_every = 0 then
    Obs.Ring.record st.flight ~id:m.trace ~verb:m.verb ~batch:m.batch
      ~queue:depth ~ts_ns:t0 ~dur_ns ~sampled:true

let deliver st items answers ~depth =
  List.iter
    (fun item ->
      let c, resp, t0, m =
        match item with
        | Ready (c, r, t0, m) -> (c, r, t0, m)
        | Slice (c, off, len, t0, m) ->
            (c, SP.Answers (Array.sub answers off len), t0, m)
      in
      SP.add_response c.out resp;
      let dur_ns = Obs.Clock.now_ns () - t0 in
      Obs.observe h_latency (Obs.Clock.ns_to_us dur_ns);
      record_flight st m ~t0 ~dur_ns ~depth)
    items

let process_cycle st =
  let items = ref [] in
  let pairs_rev = ref [] in
  let pairs_len = ref 0 in
  List.iter (fun c -> parse_conn st items pairs_rev pairs_len c) st.conns;
  let items = List.rev !items in
  let depth = List.length items in
  if depth > 0 then begin
    st.last_depth <- depth;
    Obs.set_gauge g_queue (float_of_int depth)
  end;
  let answers =
    if !pairs_len = 0 then [||]
    else begin
      let pairs = Array.concat (List.rev !pairs_rev) in
      let answers = Array.make !pairs_len false in
      run_batches st pairs answers;
      answers
    end
  in
  deliver st items answers ~depth

(* ------------------------------------------------------------------ *)
(* Sockets *)

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
      let hits =
        Unix.getaddrinfo host ""
          [ Unix.AI_FAMILY Unix.PF_INET; Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
      in
      let rec first = function
        | [] -> failwith (Printf.sprintf "Server: cannot resolve host %s" host)
        | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
        | _ :: rest -> first rest
      in
      first hits)

let open_listener st ~proto l =
  let note transport addr =
    Obs.Log.info "listening"
      ~fields:
        [
          ("proto", Obs.Log.Str proto);
          ("transport", Obs.Log.Str transport);
          ("addr", Obs.Log.Str addr);
        ]
  in
  match l with
  | Unix_socket path ->
      (* A stale socket file from a crashed daemon would make bind fail;
         replace it. *)
      if Sys.file_exists path then begin
        try Unix.unlink path with Unix.Unix_error _ -> ()
      end;
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      Unix.set_nonblock fd;
      st.cleanup <-
        (fun () -> try Unix.unlink path with Unix.Unix_error _ -> ())
        :: st.cleanup;
      note "unix" path;
      fd
  | Tcp { host; port } ->
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (resolve_host host, port));
      Unix.listen fd 64;
      Unix.set_nonblock fd;
      note "tcp" (Printf.sprintf "%s:%d" host port);
      fd

let rec accept_all st lfd ~http =
  match Unix.accept ~cloexec:true lfd with
  | fd, _addr ->
      Unix.set_nonblock fd;
      let c =
        {
          fd;
          inbuf = Buffer.create 4096;
          out = Buffer.create 4096;
          out_ofs = 0;
          closing = false;
        }
      in
      if http then st.hconns <- c :: st.hconns
      else begin
        st.accepted <- st.accepted + 1;
        Obs.incr m_connections;
        st.conns <- c :: st.conns
      end;
      accept_all st lfd ~http
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
      accept_all st lfd ~http

(* One-shot HTTP handling for the scrape plane: parse once the header
   terminator is in, answer, close.  Routed entirely off the request
   path so a scraper can never touch protocol state. *)
let http_route st (r : Server_http.request) =
  if r.meth <> "GET" then (405, "text/plain; charset=utf-8", "only GET\n")
  else
    match r.path with
    | "/metrics" ->
        (200, "text/plain; version=0.0.4; charset=utf-8", metrics_text st)
    | "/healthz" -> (200, "text/plain; charset=utf-8", "ok\n")
    | "/readyz" ->
        if st.draining then (503, "text/plain; charset=utf-8", "draining\n")
        else if st.ready then (200, "text/plain; charset=utf-8", "ready\n")
        else (503, "text/plain; charset=utf-8", "starting\n")
    | _ -> (404, "text/plain; charset=utf-8", "not found\n")

let process_http st =
  List.iter
    (fun c ->
      if (not c.closing) && Buffer.length c.out = 0 then
        match Server_http.parse (Buffer.contents c.inbuf) with
        | Server_http.Incomplete -> ()
        | Server_http.Bad msg ->
            Buffer.add_string c.out
              (Server_http.response ~status:400 (msg ^ "\n"));
            c.closing <- true
        | Server_http.Request r ->
            let status, content_type, body = http_route st r in
            st.scrapes <- st.scrapes + 1;
            Obs.incr m_scrapes;
            Obs.Log.debug "scrape"
              ~fields:
                [ ("path", Obs.Log.Str r.path); ("status", Obs.Log.Int status) ];
            Buffer.add_string c.out
              (Server_http.response ~status ~content_type body);
            c.closing <- true)
    st.hconns

(* One scratch buffer is enough: the loop is single-threaded. *)
let read_scratch = Bytes.create 65536

let read_conn c =
  match Unix.read c.fd read_scratch 0 (Bytes.length read_scratch) with
  | 0 -> c.closing <- true
  | k -> Buffer.add_subbytes c.inbuf read_scratch 0 k
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      Buffer.clear c.out;
      c.out_ofs <- 0;
      c.closing <- true

let flush_conn c =
  let progress = ref true in
  while !progress && out_pending c > 0 do
    let k = min 65536 (out_pending c) in
    let s = Buffer.sub c.out c.out_ofs k in
    match Unix.write_substring c.fd s 0 k with
    | n ->
        c.out_ofs <- c.out_ofs + n;
        if n < k then progress := false
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        progress := false
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        Buffer.clear c.out;
        c.out_ofs <- 0;
        c.closing <- true;
        progress := false
  done;
  if out_pending c = 0 && Buffer.length c.out > 0 then begin
    Buffer.clear c.out;
    c.out_ofs <- 0
  end

let sweep st =
  let close_done conns =
    let closed, live =
      List.partition (fun c -> c.closing && out_pending c = 0) conns
    in
    List.iter
      (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
      closed;
    live
  in
  st.conns <- close_done st.conns;
  st.hconns <- close_done st.hconns

let dump_flight st =
  match open_out st.flight_file with
  | oc ->
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc (Obs.Ring.to_chrome_json st.flight));
      Obs.Log.info "flight recorder dumped"
        ~fields:
          [
            ("path", Obs.Log.Str st.flight_file);
            ( "entries",
              Obs.Log.Int
                (min (Obs.Ring.recorded st.flight) (Obs.Ring.capacity st.flight))
            );
          ]
  | exception Sys_error e ->
      Obs.Log.error "flight dump failed" ~fields:[ ("error", Obs.Log.Str e) ]

(* ------------------------------------------------------------------ *)
(* Main loop *)

let serve_loop st stop usr1 =
  let rec go () =
    if st.draining && (st.lfds <> [] || st.http_lfds <> []) then begin
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        (st.lfds @ st.http_lfds);
      st.lfds <- [];
      st.http_lfds <- []
    end;
    if st.draining && st.conns = [] && st.hconns = [] then ()
    else begin
      let backlog = List.exists (pending_frame st) st.conns in
      let readable_conns conns =
        List.filter_map
          (fun c ->
            if
              (not c.closing) && (not st.draining)
              && out_pending c < out_high_water
            then Some c.fd
            else None)
          conns
      in
      let rfds =
        st.lfds @ st.http_lfds @ readable_conns st.conns
        @ readable_conns st.hconns
      in
      let wfds =
        List.filter_map
          (fun c -> if out_pending c > 0 then Some c.fd else None)
          (st.conns @ st.hconns)
      in
      let timeout = if backlog then 0.0 else if st.draining then 0.05 else 0.25 in
      (match Unix.select rfds wfds [] timeout with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | readable, _, _ ->
          List.iter
            (fun fd ->
              if List.memq fd st.lfds then accept_all st fd ~http:false
              else if List.memq fd st.http_lfds then accept_all st fd ~http:true)
            readable;
          List.iter
            (fun c -> if List.memq c.fd readable then read_conn c)
            (st.conns @ st.hconns));
      if !stop && not st.draining then begin
        Obs.Log.info "draining" ~fields:[ ("reason", Obs.Log.Str "signal") ];
        st.draining <- true
      end;
      if !usr1 then begin
        usr1 := false;
        dump_flight st
      end;
      process_cycle st;
      process_http st;
      Obs.Window.tick st.w_queries;
      Obs.Window.tick st.w_latency;
      Obs.set_gauge g_conns (float_of_int (List.length st.conns));
      List.iter flush_conn (st.conns @ st.hconns);
      if st.draining then begin
        List.iter
          (fun c -> if not (pending_frame st c) then c.closing <- true)
          st.conns;
        List.iter (fun c -> c.closing <- true) st.hconns
      end;
      sweep st;
      if Obs.Log.pending () then Obs.Log.flush ();
      go ()
    end
  in
  go ()

let default_flight_file () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "qpgc-flight-%d.json" (Unix.getpid ()))

let run ?(max_frame = SP.default_max_frame) ?(queue_max = 64)
    ?(batch_max = 8192) ?(on_ready = fun () -> ()) ?(http_listeners = [])
    ?(slow_us = 1000.0) ?(sample_every = 64) ?(flight_cap = 4096) ?flight_file
    ?frame_hook ~listeners engine =
  if listeners = [] then invalid_arg "Server.run: no listeners";
  if queue_max < 1 then invalid_arg "Server.run: queue_max must be positive";
  if batch_max < 1 then invalid_arg "Server.run: batch_max must be positive";
  Obs.set_metrics true;
  let st =
    {
      engine;
      max_frame;
      queue_max;
      batch_max;
      started_ns = Obs.Clock.now_ns ();
      slow_ns = int_of_float (Float.max 0.0 slow_us *. 1e3);
      sample_every;
      flight = Obs.Ring.create ~cap:flight_cap ();
      flight_file =
        (match flight_file with
        | Some f -> f
        | None -> default_flight_file ());
      w_queries = Obs.Window.create "server.queries";
      w_latency = Obs.Window.create "server.latency_us";
      frame_hook;
      conns = [];
      hconns = [];
      lfds = [];
      http_lfds = [];
      ready = false;
      draining = false;
      accepted = 0;
      scrapes = 0;
      frames = 0;
      malformed = 0;
      queries = 0;
      batches = 0;
      next_trace = 0;
      last_depth = 0;
      cleanup = [];
    }
  in
  let stop = ref false in
  let usr1 = ref false in
  let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true)) in
  let old_int = Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true)) in
  let old_usr1 = Sys.signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> usr1 := true)) in
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm old_term;
      Sys.set_signal Sys.sigint old_int;
      Sys.set_signal Sys.sigusr1 old_usr1;
      Sys.set_signal Sys.sigpipe old_pipe;
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        (st.lfds @ st.http_lfds);
      List.iter
        (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
        (st.conns @ st.hconns);
      st.lfds <- [];
      st.http_lfds <- [];
      st.conns <- [];
      st.hconns <- [];
      List.iter (fun f -> f ()) st.cleanup;
      Obs.Log.flush ())
    (fun () ->
      st.lfds <- List.map (open_listener st ~proto:"qpgc") listeners;
      st.http_lfds <- List.map (open_listener st ~proto:"http") http_listeners;
      (* The engine was built before [run] was entered, so readiness is
         "listeners bound over a resident engine". *)
      st.ready <- true;
      on_ready ();
      serve_loop st stop usr1;
      Obs.Log.info "drained"
        ~fields:
          [ ("frames", Obs.Log.Int st.frames); ("queries", Obs.Log.Int st.queries) ];
      {
        accepted = st.accepted;
        frames = st.frames;
        malformed = st.malformed;
        queries = st.queries;
        batches = st.batches;
      })
