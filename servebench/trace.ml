(* Spans around calls into the layers under test, kept in memory.

   A span records a name, its start and end on the monotonic clock, the
   span that caused it ([parent], [-1] at top level) and the tenant it
   belongs to. Recording is off unless [enable] was called, and then
   nothing is kept, which is what the untraced run measures. Spans are
   written out as JSON lines when the run ends, and a span's self time
   is its duration minus the part of it that its children cover. *)

type span = {
  id : int;
  name : string;
  parent : int;
  tenant : int;
  t0 : float;
  t1 : float;
}

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let on = ref false
let lock = Mutex.create ()
let next_id = ref 0
let spans : span list ref = ref []

let enable () = on := true
let disable () = on := false

let fresh_id () =
  Mutex.lock lock;
  let id = !next_id in
  next_id := id + 1;
  Mutex.unlock lock;
  id

let record s =
  Mutex.lock lock;
  spans := s :: !spans;
  Mutex.unlock lock

(* A span id for a span whose end is recorded later with [emit], so
   its children can name it as their parent; [-1] when tracing is off. *)
let fresh () = if !on then fresh_id () else -1

let emit ~id ?(parent = -1) ?(tenant = -1) name t0 t1 =
  if !on && id >= 0 then record { id; name; parent; tenant; t0; t1 }

(* Run [f] and return its result with its duration. The clock is read
   whether or not tracing is on — the workload loop needs its latencies
   in the untraced run too — but a span is recorded only when it is. *)
let timed ?parent ?tenant name f =
  let id = fresh () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  emit ~id ?parent ?tenant name t0 t1;
  (r, t1 -. t0)

let all () =
  Mutex.lock lock;
  let l = List.rev !spans in
  Mutex.unlock lock;
  l

(* Length of the union of intervals clipped to [lo, hi]. *)
let covered ~lo ~hi ivs =
  let ivs =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      ivs
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, Float.max cb b))
          else (total +. (cb -. ca), Some (a, b)))
      (0.0, None) ivs
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of every span, in seconds, keyed by span id. *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.t0, s.t1)
          :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  let self = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      Hashtbl.replace self s.id
        (s.t1 -. s.t0 -. covered ~lo:s.t0 ~hi:s.t1 kids))
    spans;
  self

(* Self times of the spans with this name. *)
let self_of spans self name =
  List.filter_map
    (fun s -> if s.name = name then Hashtbl.find_opt self s.id else None)
    spans

let write file spans =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"parent\":%d,\"tenant\":%d,\
             \"start_s\":%.9f,\"end_s\":%.9f}\n"
            s.id s.name s.parent s.tenant s.t0 s.t1)
        spans)
