(* One `qpgc serve` child process: spawn, wait for its ready file,
   read its CPU time and peak RSS from /proc, drain it through the
   protocol and reap it.  Every spawned pid is remembered so an exit path
   that skips [stop] still kills and reaps it. *)

type t = {
  pid : int;
  sock : string;
  ready : string;
  log : string;
  mutable reaped : bool;
}

let live : t list ref = ref []

let reap_status pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> None
  | _, st -> Some st
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Some (Unix.WEXITED 0)

let kill d =
  if not d.reaped then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
    d.reaped <- true
  end;
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ d.sock; d.ready; d.log ]

let () = at_exit (fun () -> List.iter kill !live)

let spawn ~qpgc ~dir ~tag ~snapshot ~extra =
  let path ext = Filename.concat dir (tag ^ ext) in
  let sock = path ".sock" and ready = path ".ready" and log = path ".log" in
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ sock; ready ];
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let argv =
    [ qpgc; "serve"; snapshot; "--socket"; sock; "--ready-file"; ready;
      "--domains"; "1" ] @ extra
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> Unix.create_process qpgc (Array.of_list argv) Unix.stdin fd fd)
  in
  let d = { pid; sock; ready; log; reaped = false } in
  live := d :: !live;
  d

(* Polls for the ready file; [false] when the daemon exits first or the
   timeout passes. *)
let wait_ready ?(timeout_s = 60.) d =
  let t0 = Pb_util.now_ns () in
  let rec go () =
    if Sys.file_exists d.ready then true
    else if reap_status d.pid <> None then begin
      d.reaped <- true;
      false
    end
    else if Pb_util.s_of_ns (Pb_util.now_ns () - t0) > timeout_s then false
    else begin
      Unix.sleepf 0.001;
      go ()
    end
  in
  go ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

let cpu_ticks d =
  Pb_util.proc_cpu_ticks (read_file (Printf.sprintf "/proc/%d/stat" d.pid))

let vmhwm_kb d =
  Pb_util.vmhwm_kb (read_file (Printf.sprintf "/proc/%d/status" d.pid))

(* Sends the shutdown verb and waits up to [timeout_s] for a clean exit;
   [true] iff the daemon acknowledged and exited with status 0.  The
   daemon is killed if it does not. *)
let stop ?(timeout_s = 20.) d =
  let acked =
    match Server_client.connect_unix d.sock with
    | c ->
        Fun.protect
          ~finally:(fun () -> Server_client.close c)
          (fun () ->
            match Server_client.shutdown c with
            | _ -> true
            | exception (Failure _ | Unix.Unix_error _) -> false)
    | exception Unix.Unix_error _ -> false
  in
  let t0 = Pb_util.now_ns () in
  let rec wait () =
    match reap_status d.pid with
    | Some st -> Some st
    | None ->
        if Pb_util.s_of_ns (Pb_util.now_ns () - t0) > timeout_s then None
        else begin
          Unix.sleepf 0.005;
          wait ()
        end
  in
  let clean =
    match if d.reaped then None else wait () with
    | Some (Unix.WEXITED 0) ->
        d.reaped <- true;
        acked
    | Some _ ->
        d.reaped <- true;
        false
    | None -> false
  in
  kill d;
  live := List.filter (fun x -> x != d) !live;
  clean

(* Runs a one-shot qpgc subcommand to completion; [true] on exit 0. *)
let run_tool ~qpgc ~log args =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.create_process qpgc (Array.of_list (qpgc :: args)) Unix.stdin fd fd)
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> true
  | _ -> false
