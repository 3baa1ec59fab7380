(* perfbench: the repository's benchmark.  One workload per invocation:

     perfbench --workload reach|pattern
               --seed N --seconds S --trace 0|1

   Human-readable lines go to stdout first; the last line is one JSON
   object {correct, attempted, failed, metrics}.  With --trace 0 the
   metrics are the workload's end-to-end figures; with --trace 1 they
   are its per-layer figures, and the spans behind them are written as
   Chrome trace JSON next to the scratch directory.  See README.md. *)

let workloads =
  [
    ("reach", Reach_workload.run);
    ("pattern", Pattern_workload.run);
  ]

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

let parse argv =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | [] -> ()
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  Hashtbl.find_opt tbl

(* Digest of the library and CLI sources the run measured, so a result
   is tied to its code even outside a git checkout. *)
let source_digest () =
  let rec files dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | entries ->
        Array.sort compare entries;
        Array.to_list entries
        |> List.concat_map (fun e ->
               let p = Filename.concat dir e in
               if Sys.is_directory p then files p
               else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
               then [ p ]
               else [])
  in
  let ds = List.map (fun p -> Digest.to_hex (Digest.file p)) (files "lib" @ files "bin") in
  Digest.to_hex (Digest.string (String.concat "" ds))

let rec remove_tree p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun e -> remove_tree (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

let () =
  let get = parse Sys.argv in
  let req k = match get k with Some v -> v | None -> usage () in
  let int_arg k = match int_of_string_opt (req k) with Some x -> x | None -> usage () in
  let workload = req "workload" in
  let run =
    match List.assoc_opt workload workloads with Some f -> f | None -> usage ()
  in
  let seed = int_arg "seed" in
  let seconds =
    match float_of_string_opt (req "seconds") with
    | Some s when s > 0. -> s
    | _ -> usage ()
  in
  let trace =
    match req "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  (* The daemon executable dune builds next to this one. *)
  let qpgc =
    Filename.concat
      (Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin")
      "qpgc.exe"
  in
  if not (Sys.file_exists qpgc) then begin
    Printf.eprintf "perfbench: qpgc executable not found at %s\n" qpgc;
    exit 2
  end;
  let out = Filename.concat "perfbench" "_out" in
  let dir = Filename.concat out (Printf.sprintf "run-%d" (Unix.getpid ())) in
  (try Unix.mkdir out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir dir 0o755;
  at_exit (fun () -> try remove_tree dir with Sys_error _ -> ());
  (* A terminated run still drains its daemons and scratch files through
     the exit handlers. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  let nproc = Domain.recommended_domain_count () in
  let ctx =
    { Ctx.seed; seconds; trace; scale = 1.0; qpgc; dir; spans = Spans.create () }
  in
  let t0 = Pb_util.now_ns () in
  let o = run ctx in
  let wall = Pb_util.s_of_ns (Pb_util.now_ns () - t0) in
  let stamp =
    [
      ("workload", workload);
      ("seed", string_of_int seed);
      ("seconds", Printf.sprintf "%g" seconds);
      ("trace", string_of_bool trace);
      ("nproc", string_of_int nproc);
      ("ocaml", Sys.ocaml_version);
      ("git_rev", Option.value (Sys.getenv_opt "PERFBENCH_REV") ~default:"unknown");
      ("profile", Option.value (Sys.getenv_opt "PERFBENCH_PROFILE") ~default:"unknown");
      ("source_digest", source_digest ());
      ("wall_s", Printf.sprintf "%.3f" wall);
    ]
    @ o.Ctx.stamp
  in
  print_endline
    ("env "
    ^ "{"
    ^ String.concat ", "
        (List.map
           (fun (k, v) -> Pb_util.json_string k ^ ": " ^ Pb_util.json_string v)
           stamp)
    ^ "}");
  List.iter
    (fun m ->
      Printf.printf "%-40s %16.4f %s\n" m.Pb_util.name m.Pb_util.value m.Pb_util.unit_)
    o.Ctx.metrics;
  if trace then begin
    let file =
      Filename.concat out (Printf.sprintf "trace-%s-%d.json" workload seed)
    in
    Spans.write_chrome ctx.spans ~meta:stamp file;
    Printf.printf "trace: %d spans -> %s\n" (Spans.count ctx.spans) file
  end;
  let correct = o.Ctx.failed = 0 && o.Ctx.metrics <> [] in
  print_endline
    (Pb_util.result_json ~correct ~attempted:(max 1 o.Ctx.attempted)
       ~failed:o.Ctx.failed o.Ctx.metrics);
  exit (if correct then 0 else 1)
