(* Pure helpers of the benchmark: order statistics, /proc parsing, the
   daemon's stats- and metrics-verb text, and the result line.  Kept free
   of I/O so the tests can feed them fixed strings. *)

let now_ns = Obs.Clock.now_ns
let us_of_ns ns = float_of_int ns /. 1e3
let ms_of_ns ns = float_of_int ns /. 1e6
let s_of_ns ns = float_of_int ns /. 1e9

(* Linearly interpolated percentile of an ascending array, the daemon's
   load generator's definition; [nan] when empty. *)
let percentile = Server_loadgen.percentile

let sorted_copy a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let median a = percentile (sorted_copy a) 50.
let median_list l = median (Array.of_list l)

(* Fields after the parenthesised command name of /proc/<pid>/stat; the
   name may itself contain spaces and parentheses, so split after the
   last ')'. *)
let stat_fields s =
  match String.rindex_opt s ')' with
  | None -> failwith "proc stat: no command field"
  | Some i ->
      String.sub s (i + 1) (String.length s - i - 1)
      |> String.split_on_char ' '
      |> List.filter (fun f -> f <> "")
      |> Array.of_list

(* utime + stime of a /proc/<pid>/stat line, in clock ticks (fields 14
   and 15 of proc(5); the first field after ')' is field 3). *)
let proc_cpu_ticks s =
  let f = stat_fields s in
  if Array.length f < 13 then failwith "proc stat: too few fields";
  int_of_string f.(11) + int_of_string f.(12)

(* The /proc ABI reports CPU time in USER_HZ ticks, fixed at 100 on
   Linux whatever the kernel's internal HZ. *)
let us_per_tick = 10_000.


(* [line_int text prefix] is the integer right after [prefix] on the
   first line that starts with it: [line_int stats "queries:"],
   [line_int stats "gc: minor"] on the stats verb's text. *)
let line_int text prefix =
  let pl = String.length prefix in
  match
    List.find_opt
      (fun l -> String.length l >= pl && String.sub l 0 pl = prefix)
      (String.split_on_char '\n' text)
  with
  | None -> failwith ("no line starting with " ^ prefix)
  | Some l -> Scanf.sscanf (String.sub l pl (String.length l - pl)) " %d" Fun.id

(* Peak resident set of a /proc/<pid>/status text, in kB. *)
let vmhwm_kb s = line_int s "VmHWM:"

(* Cumulative buckets of one Prometheus histogram family in the metrics
   verb's text: [(upper bound, cumulative count)] in ascending order,
   [+Inf] as [infinity]. *)
let histogram_buckets text family =
  let prefix = family ^ "_bucket{le=\"" in
  let pl = String.length prefix in
  String.split_on_char '\n' text
  |> List.filter_map (fun l ->
         if String.length l > pl && String.sub l 0 pl = prefix then
           match String.index_from_opt l pl '"' with
           | None -> None
           | Some q ->
               let le = String.sub l pl (q - pl) in
               let bound =
                 if le = "+Inf" then infinity else float_of_string le
               in
               let count =
                 int_of_string
                   (String.trim
                      (String.sub l (q + 2) (String.length l - q - 2)))
               in
               Some (bound, count)
         else None)
  |> Array.of_list

(* Per-bucket counts observed between two scrapes of one histogram. *)
let histogram_delta ~before ~after =
  if Array.length before <> Array.length after then
    failwith "histogram delta: bucket layouts differ";
  let cum_delta =
    Array.mapi
      (fun i (b, c) ->
        let b', c0 = before.(i) in
        if b <> b' then failwith "histogram delta: bucket bounds differ";
        c - c0)
      after
  in
  Array.mapi
    (fun i (b, _) ->
      (b, if i = 0 then cum_delta.(0) else cum_delta.(i) - cum_delta.(i - 1)))
    after

(* Quantile [q] in [0,1] of per-bucket counts, interpolated linearly
   inside the bucket that holds it (the first bucket starts at 0).  Mass
   in the +Inf bucket reports the last finite bound. *)
let histogram_quantile buckets q =
  let total = Array.fold_left (fun a (_, c) -> a + c) 0 buckets in
  if total = 0 then None
  else begin
    let target = q *. float_of_int total in
    let result = ref None and cum = ref 0 and lower = ref 0. in
    Array.iter
      (fun (bound, c) ->
        if !result = None && c > 0
           && float_of_int (!cum + c) >= target then begin
          if bound = infinity then result := Some !lower
          else
            let frac = (target -. float_of_int !cum) /. float_of_int c in
            result := Some (!lower +. (Float.max 0. frac *. (bound -. !lower)))
        end;
        cum := !cum + c;
        if bound <> infinity then lower := bound)
      buckets;
    !result
  end

(* ---- result line ---- *)

(* A JSON string literal.  The trace exporter's escaper in lib/obs is
   not part of its interface, so the few lines live here. *)
let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Finite numbers with every digit OCaml keeps; JSON has no NaN. *)
let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else failwith "json_number: non-finite metric value"

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let result_json ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun m ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
          (json_number m.value) (json_string m.unit_))
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " ms)
