(** The qpgc query daemon: load a snapshot once, answer forever.

    The one-shot subcommands invert the paper's "compress once, query
    many" economics — every query pays process startup, snapshot open and
    planner probing.  [run] keeps all of that resident: an {!engine} is
    built once from any snapshot kind ('G'/'M'/'V' graphs, 'C'
    compressions, 'I' indexes), the planner's stats probe runs once at
    load, and a single-threaded [select] loop then serves
    {!Server_protocol} frames over unix-domain and/or TCP sockets.

    Batching is the whole point: each loop iteration drains every
    readable connection, coalesces all pending reachability frames into
    one flat pair array, and dispatches it through the engine's
    [eval_batch] (pool-parallel internally) in [batch_max]-sized chunks —
    concurrent clients share planning, cache locality and domain fan-out.
    Replies preserve per-connection FIFO order.

    Backpressure is structural: at most [queue_max] frames are parsed per
    connection per cycle, reads pause on connections with more than a
    high-water mark of unflushed output, and the socket buffers do the
    rest.  SIGTERM/SIGINT (or the protocol's shutdown verb) switch the
    loop into a drain: listeners close, buffered complete frames are
    still answered, replies are flushed, then [run] returns its totals.

    The loop records [server.*] obs counters and histograms (frames,
    queries, batch size, queue depth, per-frame latency); the stats verb
    renders them with bucket-quantile p50/p99.

    The telemetry plane rides the same [select] loop: optional HTTP/1.0
    listeners serve [GET /metrics] (Prometheus text with rolling-window
    qps and latency quantiles appended), [/healthz] and [/readyz] (503
    while draining); every frame gets a daemon-unique trace id and the
    slow ones (plus a 1-in-N sample) land in a preallocated
    flight-recorder ring, dumpable with the protocol's ['D'] verb or as
    a Chrome-trace file on SIGUSR1; progress and drain events go through
    {!Obs.Log} rather than a callback. *)

(** A loaded snapshot plus the query routes chosen for it, built once. *)
type engine

(** [engine_of_graph ?pool ?index g] plans with {!Planner.create} — one
    stats probe for the daemon's lifetime.  Pattern queries build the
    bisimulation compression lazily on first use. *)
val engine_of_graph :
  ?pool:Pool.t -> ?index:Reach_index.t -> Digraph.t -> engine

(** [engine_of_compressed ?pool c] indexes the compressed graph
    ({!Compress_reach.index}) and answers original-graph ids through the
    node map.  Pattern queries evaluate on [c] directly, which is only
    meaningful when the snapshot came from [compress --mode pattern]. *)
val engine_of_compressed : ?pool:Pool.t -> Compressed.t -> engine

(** [engine_of_index ?pool idx] serves a standalone 'I' snapshot.
    Pattern queries are answered with an error. *)
val engine_of_index : ?pool:Pool.t -> Reach_index.t -> engine

(** [load_engine ?pool ?mmap ?index_file path] sniffs the snapshot kind
    byte ({!Graph_io.sniff}) and dispatches to the right loader ([mmap]
    defaults to [true]).  Every graph that opens on the mapped backend —
    a top-level 'M', the [Gr] of a 'C', a GRAIL condensation — passes
    {!Graph_io.check_mapped} before the engine is returned.  Text files carry no kind byte: they are parsed as a plain graph
    first and retried as a compression when the graph parser rejects
    the compression-only records (whose text format strictly extends
    the graph records).  [index_file] is only meaningful for graph
    snapshots.
    @raise Graph_io.Parse_error, [Compressed_io.Parse_error] or
    [Reach_index_io.Parse_error] on a corrupt snapshot. *)
val load_engine :
  ?pool:Pool.t -> ?mmap:bool -> ?index_file:string -> string -> engine

(** One-line snapshot description / committed route / planner summary,
    as also shown by the stats verb. *)
val engine_info : engine -> string

val engine_route : engine -> string
val engine_describe : engine -> string

(** Exclusive upper bound on valid node ids (queries beyond it get an
    error reply, not an answer). *)
val node_bound : engine -> int

(** [eval engine pairs] answers one batch in-process — the serving path
    without the sockets, for tests and oracles. *)
val eval : engine -> (int * int) array -> bool array

type listener =
  | Unix_socket of string  (** path; a stale socket file is replaced *)
  | Tcp of { host : string; port : int }

(** What the daemon did, returned after the drain completes. *)
type totals = {
  accepted : int;  (** connections accepted *)
  frames : int;  (** well-formed request frames *)
  malformed : int;  (** rejected frames (clean error replies) *)
  queries : int;  (** reachability queries answered *)
  batches : int;  (** [eval_batch] dispatches *)
}

(** [run ~listeners engine] serves until a drain completes.  [on_ready]
    fires after every listener is bound and listening (write a ready
    file, signal a test).  [queue_max] (default 64) caps frames parsed
    per connection per cycle; [batch_max] (default 8192) caps the pairs
    per [eval_batch] dispatch; [max_frame] caps the accepted frame
    payload.

    [http_listeners] (default none) adds scrape endpoints on the same
    loop: [GET /metrics], [/healthz], [/readyz] — ready once the
    listeners are bound over the resident engine, 503 while draining.

    The flight recorder captures every frame whose latency reaches
    [slow_us] (default 1000) plus a deterministic 1-in-[sample_every]
    sample below it (default 64; 0 disables sampling) into a
    [flight_cap]-entry ring (default 4096).  SIGUSR1 writes it as
    Chrome-trace JSON to [flight_file] (default
    [<tmpdir>/qpgc-flight-<pid>.json]); the ['D'] verb returns the same
    JSON in a text frame.

    [frame_hook] is a test-only hook called with every well-formed
    request before dispatch — used to inject latency so the slow path
    can be exercised deterministically.

    Progress lines (listening / draining / drained / flight dumps) are
    logged through {!Obs.Log} at info level; the buffer is flushed every
    loop iteration and once more on return.

    Installs SIGTERM/SIGINT drain handlers and a SIGUSR1 dump handler
    and ignores SIGPIPE for its duration, restoring the previous
    handlers on return. *)
val run :
  ?max_frame:int ->
  ?queue_max:int ->
  ?batch_max:int ->
  ?on_ready:(unit -> unit) ->
  ?http_listeners:listener list ->
  ?slow_us:float ->
  ?sample_every:int ->
  ?flight_cap:int ->
  ?flight_file:string ->
  ?frame_hook:(Server_protocol.request -> unit) ->
  listeners:listener list ->
  engine ->
  totals
