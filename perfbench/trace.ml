(* Spans and counters recorded by the benchmark around calls into each
   layer's public functions. Spans are kept in memory and written out
   once, at the end of a traced run, as Chrome trace-event JSON (which
   Perfetto and chrome://tracing open). Nothing is recorded when the
   tracer is disabled, so untraced passes pay one branch per boundary. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root *)
  name : string;
  pass : int;
  tid : int;  (** the recording domain *)
  start : float;
  stop : float;
  args : (string * string) list;
}

type t = {
  enabled : bool;
  workload : string;
  origin : float;
  mu : Mutex.t;
  mutable next : int;
  mutable spans : span list;
}

let create ~enabled ~workload =
  {
    enabled;
    workload;
    origin = Util.now ();
    mu = Mutex.create ();
    next = 0;
    spans = [];
  }

(* Records nothing: untraced passes of a traced run go through this. *)
let disabled = create ~enabled:false ~workload:""

let fresh_id t =
  Mutex.protect t.mu (fun () ->
      let id = t.next in
      t.next <- id + 1;
      id)

(* [with_span t ~parent ~pass name f] runs [f id] inside a span whose
   children name [id] as their parent. Safe from any domain. *)
let with_span t ?(parent = -1) ?(args = []) ~pass name f =
  if not t.enabled then f (-1)
  else begin
    let id = fresh_id t in
    let start = Util.now () in
    let r = f id in
    let stop = Util.now () in
    let s =
      {
        id;
        parent;
        name;
        pass;
        tid = (Domain.self () :> int);
        start;
        stop;
        args;
      }
    in
    Mutex.protect t.mu (fun () -> t.spans <- s :: t.spans);
    r
  end

let spans t = List.rev t.spans
let dur s = s.stop -. s.start
let children t id = List.filter (fun s -> s.parent = id) (spans t)

(* Length of the union of [(start, stop)] intervals. *)
let union_length ivs =
  let ivs = List.sort compare ivs in
  let total, cur =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) ivs
  in
  match cur with None -> total | Some (a, b) -> total +. (b -. a)

(* A span's self time: its duration minus the part its children cover. *)
let self_time t s =
  dur s -. union_length (List.map (fun c -> (c.start, c.stop)) (children t s.id))

(* Sum of the top-level layer spans of every traced pass over the sum of
   those passes' walls: how much of a pass the layer spans account for. *)
let coverage t ~root_name =
  let roots = List.filter (fun s -> s.name = root_name) (spans t) in
  let covered =
    Util.sum (List.map (fun r -> Util.sum (List.map dur (children t r.id))) roots)
  in
  let wall = Util.sum (List.map dur roots) in
  if wall > 0.0 then covered /. wall else 0.0

(* Hot per-call boundaries (one recover call, one corruption) are too
   many to keep as spans; they accumulate busy time and a call count. *)
type acc = { amu : Mutex.t; mutable busy : float; mutable calls : int }

let acc () = { amu = Mutex.create (); busy = 0.0; calls = 0 }

let reset a =
  a.busy <- 0.0;
  a.calls <- 0

let timed a f =
  let t0 = Util.now () in
  let r = f () in
  let dt = Util.now () -. t0 in
  Mutex.protect a.amu (fun () ->
      a.busy <- a.busy +. dt;
      a.calls <- a.calls + 1);
  r

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Writes every span as a complete ("X") event, timestamps in
   microseconds from the tracer's creation, with [other] (provenance) as
   the top-level "otherData" object. *)
let write_chrome t ~path ~other =
  let us x = (x -. t.origin) *. 1e6 in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "{\"traceEvents\":[\n";
      List.iteri
        (fun i s ->
          let args =
            [
              ("id", string_of_int s.id);
              ("parent", string_of_int s.parent);
              ("workload", json_string t.workload);
              ("pass", string_of_int s.pass);
            ]
            @ List.map (fun (k, v) -> (k, json_string v)) s.args
          in
          Printf.fprintf oc
            "%s{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\
             \"pid\":1,\"tid\":%d,\"args\":{%s}}"
            (if i = 0 then "" else ",\n")
            (json_string s.name) (json_string t.workload) (us s.start)
            (us s.stop -. us s.start)
            s.tid
            (String.concat ","
               (List.map (fun (k, v) -> json_string k ^ ":" ^ v) args)))
        (spans t);
      Printf.fprintf oc "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{%s}}\n"
        (String.concat ","
           (List.map (fun (k, v) -> json_string k ^ ":" ^ json_string v) other)))
