(* Order statistics and the result line. *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* Nearest-rank quantile: the smallest sample with at least [q] of the
   samples at or below it. For p95 over n samples, n - ceil(0.95 n)
   samples lie beyond it — at least ten once n >= 200; for p99, once
   n >= 1000. *)
let quantile q l =
  match l with
  | [] -> 0.0
  | _ ->
    let a = sorted l in
    let n = Array.length a in
    let k = int_of_float (Float.ceil (q *. float n)) - 1 in
    a.(max 0 (min (n - 1) k))

let p50 = quantile 0.5
let p95 = quantile 0.95
let p99 = quantile 0.99
let beyond_p95 n = n - int_of_float (Float.ceil (0.95 *. float n))
let sum = List.fold_left ( +. ) 0.0
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:"
          ->
          Scanf.sscanf
            (String.sub line 6 (String.length line - 6))
            " %d kB"
            (fun kb -> float kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> 0.0
      in
      go ())

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
             (json_number m.value) m.unit_)
         metrics)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed body
