(* Seeded inputs for the serving benchmark: topologies, kernels, edits.

   Everything here is a pure function of the workload seed, so two runs
   with one seed hand the server identical tenants. The program under
   test only ever sees the generated graphs and kernel closures. *)

open Fstream_graph
module Topo_gen = Fstream_workloads.Topo_gen
module Filters = Fstream_runtime.Filters

(* What a tenant's nodes do with their inputs. [first_keep] applies to
   the source's out-edges (a sparse first-stage filter), [keep] to every
   other node's. *)
type behaviour = { first_keep : float; keep : float }

type topo = {
  label : string;  (** family and size, for reports *)
  graph : Graph.t;
  backend : Fstream_core.Compiler.backend;
  behaviour : behaviour;
}

let rng seed salt = Random.State.make [| 0x5e7e; seed; salt |]

(* A fixed cost per firing, so kernel time is not zero next to the
   scheduler's own work. *)
let spin_iters = 64

let spin () =
  let x = ref 0x9e3779b9 in
  for _ = 1 to spin_iters do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17)
  done;
  ignore (Sys.opaque_identity !x)

(* Per-node seeded Bernoulli filters: node [v] of run [key] draws from
   its own stream, so its decisions depend only on its own firing
   history (a Kahn network) and a sequential replay with the same seed
   and key reproduces the run's data and sink counts exactly. *)
let kernels ~seed ~key (t : topo) g =
  let src = match Graph.sources g with s :: _ -> s | [] -> -1 in
  Filters.for_graph g (fun v outs ->
      let r = Random.State.make [| seed; key; v |] in
      let keep =
        if v = src then t.behaviour.first_keep else t.behaviour.keep
      in
      let f = Filters.bernoulli r ~keep outs in
      fun ~seq ~got ->
        spin ();
        f ~seq ~got)

let chain_behaviour = { first_keep = 0.8; keep = 0.8 }

let cs4_chain r ~blocks =
  let g =
    Topo_gen.random_cs4 r ~blocks ~block_edges:8 ~max_cap:4
  in
  {
    label = Printf.sprintf "cs4-%db" blocks;
    graph = g;
    backend = Fstream_core.Compiler.Exact;
    behaviour = chain_behaviour;
  }

(* CS4 chains of fixed shape. Lint time on a CS4 chain is set by cycle
   enumeration, which varies by orders of magnitude between random chains
   of one length (a 7-block chain takes 10 ms to over 1 s), and run cost
   and dummy traffic vary with the shape and its capacities too. A
   workload whose mix hangs on what a seed happened to draw would move
   with the seed, so chains that carry a workload's weight take one of a
   few fixed shapes per length (for 5 blocks and up, shapes of similar
   lint cost): shape [s] is [random_cs4] drawn from generator seed
   (0x10, blocks, s). *)
let reference_shapes = function
  | 5 -> [| 2; 3; 4; 6 |]
  | 6 -> [| 6; 9; 13 |]
  | 7 -> [| 0; 1; 7; 14 |]
  | 8 -> [| 6; 7 |]
  | _ -> [| 0; 1; 2; 3 |]

let reference_chain ~blocks ~shape =
  let shapes = reference_shapes blocks in
  let s = shapes.(shape mod Array.length shapes) in
  {
    label = Printf.sprintf "cs4-%db-ref%d" blocks s;
    graph =
      Topo_gen.random_cs4
        (Random.State.make [| 0x10; blocks; s |])
        ~blocks ~block_edges:8 ~max_cap:4;
    backend = Fstream_core.Compiler.Exact;
    behaviour = chain_behaviour;
  }

(* The same topology with capacities drawn from [r]: a structure the
   server has seen, under buffers it has not. *)
let recap r t =
  { t with graph = Graph.map_caps t.graph (fun _ -> 1 + Random.State.int r 4) }

let split_join ~branches ~cap =
  {
    label = Printf.sprintf "split-join-%d" branches;
    graph = Topo_gen.fig1_split_join ~branches ~cap;
    backend = Fstream_core.Compiler.Exact;
    behaviour = { first_keep = 0.6; keep = 0.9 };
  }

let deep_pipeline ~stages =
  {
    label = Printf.sprintf "pipeline-%d" stages;
    graph = Topo_gen.pipeline ~stages ~cap:4;
    backend = Fstream_core.Compiler.Exact;
    behaviour = { first_keep = 0.1; keep = 0.95 };
  }

(* Small non-CS4 DAGs for the LP backend. The layered family has one
   capacity everywhere; drawing per-edge capacities keeps every tenant's
   topology distinct from the last. *)
let dense r ~layered ~layers ~width =
  let graph =
    if layered then
      Graph.map_caps (Topo_gen.layered_dense ~layers ~width ~cap:1) (fun _ ->
          1 + Random.State.int r 6)
    else Topo_gen.random_dense r ~layers ~width ~max_cap:4
  in
  {
    label =
      Printf.sprintf "%s-%dx%d"
        (if layered then "layered" else "random-dense")
        layers width;
    graph;
    backend = Fstream_core.Compiler.Lp;
    behaviour = { first_keep = 0.8; keep = 0.8 };
  }

(* The serve-steady catalog, most popular first: 10 CS4 chains of 1-5
   blocks, two split-joins and four deep pipelines. Every seed offers
   the same 16 topologies in the same order; the seed draws the traffic
   over them and each entry's buffer profile. *)
let steady_catalog =
  let chain blocks shape = reference_chain ~blocks ~shape in
  [|
    chain 3 0;
    deep_pipeline ~stages:48;
    chain 2 0;
    split_join ~branches:3 ~cap:2;
    chain 4 0;
    chain 1 0;
    deep_pipeline ~stages:24;
    chain 5 0;
    split_join ~branches:5 ~cap:3;
    chain 3 1;
    deep_pipeline ~stages:72;
    chain 2 1;
    chain 4 1;
    chain 1 1;
    deep_pipeline ~stages:96;
    chain 5 1;
  |]

(* Zipf(1) popularity over [n] ranks as a deck of [size] draws: rank
   [i] appears in proportion to 1 / (i + 1), rounded by largest
   remainder. Dealing traffic from shuffled decks keeps every run's mix
   at these shares; sampling each arrival independently moved the mix
   enough between seeds to move medians of per-tenant costs. *)
let zipf_deck n size =
  let w = Array.init n (fun i -> 1.0 /. float (i + 1)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let exact = Array.map (fun x -> x /. total *. float size) w in
  let count = Array.map (fun x -> int_of_float x) exact in
  let short = size - Array.fold_left ( + ) 0 count in
  let by_remainder = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      compare (exact.(b) -. float count.(b)) (exact.(a) -. float count.(a)))
    by_remainder;
  for k = 0 to short - 1 do
    let i = by_remainder.(k) in
    count.(i) <- count.(i) + 1
  done;
  Array.concat (List.init n (fun i -> Array.make count.(i) i))

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int r (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* A capacity-only edit: set one seeded edge to a different capacity. *)
let resize r g =
  let e = Random.State.int r (Graph.num_edges g) in
  let cap = (Graph.edge g e).Graph.cap in
  let cap' = 1 + ((cap + Random.State.int r 3) mod 5) in
  let cap' = if cap' = cap then cap + 1 else cap' in
  [ Edit.Resize { edge = e; cap = cap' } ]

