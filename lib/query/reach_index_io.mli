(** Binary snapshots of reachability indexes.

    The third QPGC snapshot kind: magic ["QPGC"], kind ['I'], version
    byte, two reserved bytes, then

    {v
    u8   algorithm tag            0 = tree-cover, 1 = two-hop, 2 = grail
    u8   node-map flag            1 when the index answers through R
    i64  indexed node count       |Vr| (or |V| for identity indexes)
    [i64 original node count, i32 map entries ...]     when flagged
    i64  self-loop count, i32 ids (strictly ascending)
    ...  algorithm payload
    v}

    Payloads: tree-cover stores the condensation size, component map,
    post ranks and per-node interval runs; two-hop stores the two
    per-node sorted label arrays; GRAIL stores the component map, the
    condensation as an embedded {!Graph_io} snapshot blob ('G' flat or
    'M' mapped — pick with [graph_format]) and
    the per-traversal interval tables.  An 'M' cond blob is preceded by
    zero padding to an 8-byte file offset so it can be mapped in place.
    Everything is little-endian, counts before payloads — so equal
    indexes serialize to equal bytes and a snapshot round-trips
    canonically per format. *)

(** Raised on malformed input with a line number (0 for binary offsets)
    and message.  Truncation, trailing bytes, out-of-range ids and
    inconsistent sizes are all rejected. *)
exception Parse_error of int * string

val to_binary_string : ?graph_format:Digraph.backend -> Reach_index.t -> string

(** [of_binary_string s] parses a kind-['I'] snapshot.  Structural
    invariants are re-validated through {!Reach_index.v} and the backend
    [of_parts] constructors, so corrupt input fails with {!Parse_error}
    rather than undefined query behaviour. *)
val of_binary_string : string -> Reach_index.t

(** [save ?graph_format path t] writes the snapshot of [t] to [path];
    [graph_format] picks the embedded cond blob kind for GRAIL indexes
    (other backends embed no graph and ignore it). *)
val save : ?graph_format:Digraph.backend -> string -> Reach_index.t -> unit

(** [load ?mmap path] reads a snapshot written by {!save}; the GRAIL
    cond blob goes through {!Graph_io.read_blob}.  With [~mmap:true], a
    cond blob of kind 'M' opens as zero-copy mapped views over [path]
    instead of parsing eagerly, and has passed only the O(1) checks:
    run {!check_mapped} before trusting it.
    @raise Parse_error on malformed input. *)
val load : ?mmap:bool -> string -> Reach_index.t

(** [check_mapped t] is {!Graph_io.check_mapped} on the graph [t] keeps,
    if any (a GRAIL condensation); a no-op for the other families.
    @raise Parse_error when that graph is corrupt. *)
val check_mapped : Reach_index.t -> unit
