(* What every workload receives, and what it hands back. *)

type t = {
  seed : int;
  seconds : float;  (** length of the timed window(s) of one run *)
  trace : bool;  (** the traced run: per-layer metrics instead of end-to-end *)
  scale : float;  (** input size factor; 1.0 is the benchmark, tests shrink it *)
  qpgc : string;  (** the `qpgc` executable serving workloads spawn *)
  dir : string;  (** scratch directory for snapshots, sockets and logs *)
  spans : Spans.t;
}

type outcome = {
  attempted : int;
  failed : int;
  metrics : Pb_util.metric list;
  stamp : (string * string) list;  (** input sizes, for the environment stamp *)
}

let scaled ctx n = max 64 (int_of_float (Float.round (ctx.scale *. float_of_int n)))
let rng ctx tag = Random.State.make [| ctx.seed; tag |]
let path ctx name = Filename.concat ctx.dir name

(* The dataset stand-in a workload serves, as `qpgc generate` makes it.
   Its generator seed is fixed, like a real dataset: --seed draws only the
   queries, patterns and update batches, so runs with different seeds
   measure the same graph under different traffic. *)
let stand_in ctx name ~nodes ~edges =
  Datasets.generate_scaled (Datasets.find name) ~nodes:(scaled ctx nodes)
    ~edges:(scaled ctx edges)

(* Prints one human-readable line on stdout (the result line is last). *)
let note fmt = Printf.ksprintf (fun s -> print_endline s; flush stdout) fmt
