(* In-memory span recorder of the traced run.  Each span is a name, a
   start and an end (monotonic ns), the index of the span open around it
   when it began (its parent, -1 at top level) and an operation id shared
   by the spans of one request, batch or call.  Spans live in growable
   flat arrays and are written out once, as Chrome trace_event JSON, when
   the run ends. *)

type t = {
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;
  mutable name_id : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable op : int array;
  mutable len : int;
  mutable open_ : int list;
}

let create () =
  let cap = 1024 in
  {
    names = Hashtbl.create 64;
    name_of = [||];
    name_id = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap 0;
    op = Array.make cap 0;
    len = 0;
    open_ = [];
  }

let intern t name =
  match Hashtbl.find_opt t.names name with
  | Some id -> id
  | None ->
      let id = Array.length t.name_of in
      Hashtbl.add t.names name id;
      t.name_of <- Array.append t.name_of [| name |];
      id

let grow t =
  let cap = 2 * Array.length t.start in
  let g a = Array.append a (Array.make (cap - Array.length a) 0) in
  t.name_id <- g t.name_id;
  t.start <- g t.start;
  t.stop <- g t.stop;
  t.parent <- g t.parent;
  t.op <- g t.op

(* [enter t name ~op] opens a span and returns its index for {!leave}. *)
let enter t name ~op =
  if t.len = Array.length t.start then grow t;
  let i = t.len in
  t.len <- i + 1;
  t.name_id.(i) <- intern t name;
  t.parent.(i) <- (match t.open_ with p :: _ -> p | [] -> -1);
  t.op.(i) <- op;
  t.open_ <- i :: t.open_;
  t.start.(i) <- Obs.Clock.now_ns ();
  i

let leave t i =
  t.stop.(i) <- Obs.Clock.now_ns ();
  match t.open_ with
  | j :: rest when j = i -> t.open_ <- rest
  | _ -> invalid_arg "Spans.leave: not the innermost open span"

(* [span t name ~op f] runs [f] inside a span; the span is closed on
   exceptions too. *)
let span t name ~op f =
  let i = enter t name ~op in
  match f () with
  | v ->
      leave t i;
      v
  | exception e ->
      leave t i;
      raise e

let count t = t.len

(* Durations (ns) of every span called [name], in recording order. *)
let durations t name =
  match Hashtbl.find_opt t.names name with
  | None -> [||]
  | Some id ->
      let out = ref [] in
      for i = t.len - 1 downto 0 do
        if t.name_id.(i) = id then
          out := float_of_int (t.stop.(i) - t.start.(i)) :: !out
      done;
      Array.of_list !out

(* Chrome trace_event JSON ("X" complete events, microsecond
   timestamps relative to the first span); [meta] lands in the top-level
   "otherData" object. *)
let write_chrome t ~meta path =
  let oc = open_out path in
  let t0 = if t.len = 0 then 0 else t.start.(0) in
  output_string oc "{\"otherData\": {";
  output_string oc
    (String.concat ", "
       (List.map
          (fun (k, v) -> Pb_util.json_string k ^ ": " ^ Pb_util.json_string v)
          meta));
  output_string oc "},\n\"traceEvents\": [\n";
  for i = 0 to t.len - 1 do
    if i > 0 then output_string oc ",\n";
    Printf.fprintf oc
      "{\"name\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \
       \"dur\": %.3f, \"args\": {\"id\": %d, \"op\": %d, \"parent\": %d}}"
      (Pb_util.json_string t.name_of.(t.name_id.(i)))
      (float_of_int (t.start.(i) - t0) /. 1e3)
      (float_of_int (t.stop.(i) - t.start.(i)) /. 1e3)
      i t.op.(i) t.parent.(i)
  done;
  output_string oc "\n]}\n";
  close_out oc
