(* After the timed window: output checks and the per-layer replay.

   The checks run on every run. The replay of the lower layers — lint,
   cycle enumeration, CS4 classification, compilation, recompilation —
   runs only in the traced run, on the same generated topologies and
   edits the workload loop sent to the server. The sequential replay of
   every tenant run is both the output check and, traced, the engine
   layer's single-threaded baseline. *)

open Fstream_graph
module Lint = Fstream_analysis.Lint
module Cs4 = Fstream_ladder.Cs4
module Compiler = Fstream_core.Compiler
module Thresholds = Fstream_core.Thresholds
module Lp = Fstream_core.Lp
module Engine = Fstream_runtime.Engine
module Report = Fstream_runtime.Report
module Run = Fstream_runtime.Run
module Verify = Fstream_verify.Verify
open Workloads

let options backend = { Compiler.Options.default with backend }

let fresh_table g backend =
  match Compiler.compile ~options:(options backend) Compiler.Non_propagation g
  with
  | Ok plan -> Ok (Compiler.send_thresholds g plan.Compiler.intervals)
  | Error e -> Error (Compiler.error_to_string e)

let table_of = function
  | Engine.Non_propagation th | Engine.Propagation th -> Some th
  | Engine.No_avoidance -> None

type engine_totals = {
  mutable seconds : float;
  mutable messages : int;
  mutable minor_words : float;
  mutable data : int;
  mutable dummies : int;
  mutable dropped : int;
}

(* Every tenant run against a sequential run of the same topology,
   kernels and table: completed runs of a Kahn network push the same
   data and deliver the same sink data whatever the schedule. *)
let check_runs a =
  let tot =
    {
      seconds = 0.0;
      messages = 0;
      minor_words = 0.0;
      data = 0;
      dummies = 0;
      dropped = 0;
    }
  in
  List.iter
    (fun (r : run_rec) ->
      let kernels = Gen.kernels ~seed:a.seed ~key:r.key r.topo r.graph in
      let config = Run.sequential ~avoidance:r.avoidance () in
      let w0 = Gc.minor_words () in
      let seq, dt =
        Trace.timed "engine.run" (fun () ->
            Run.exec config ~graph:r.graph ~kernels ~inputs:r.inputs ())
      in
      let w1 = Gc.minor_words () in
      tot.seconds <- tot.seconds +. dt;
      tot.messages <-
        tot.messages + seq.Report.data_messages + seq.Report.dummy_messages;
      tot.minor_words <- tot.minor_words +. (w1 -. w0);
      tot.data <- tot.data + seq.Report.data_messages;
      tot.dummies <- tot.dummies + seq.Report.dummy_messages;
      tot.dropped <- tot.dropped + seq.Report.dropped_dummies;
      if seq.Report.outcome <> Report.Completed then
        fail a "%s: sequential reference did not complete" r.topo.label
      else if
        r.report.Report.data_messages <> seq.Report.data_messages
        || r.report.Report.sink_data <> seq.Report.sink_data
      then
        fail a "%s: served run pushed %d data / %d at sinks, reference %d / %d"
          r.topo.label r.report.Report.data_messages r.report.Report.sink_data
          seq.Report.data_messages seq.Report.sink_data)
    (List.rev a.runs);
  tot

(* After each reconfigure the session's table must be the one a fresh
   compile of its graph gives. The exact route is deterministic, so the
   tables are equal entry for entry; an LP optimum need not be a unique
   vertex, so an LP table must agree on which channels are unbounded and
   pass the LP's own run-sum audit. *)
let check_tables a =
  List.iter
    (fun (t : table_rec) ->
      match (table_of t.table, fresh_table t.tgraph t.tbackend) with
      | None, _ -> fail a "reconfigured session carries no table"
      | _, Error e -> fail a "fresh compile of a reconfigured graph: %s" e
      | Some served, Ok fresh -> (
        let s = Thresholds.to_array served and f = Thresholds.to_array fresh in
        match t.tbackend with
        | Compiler.Lp ->
          let unbounded = Array.map Option.is_none in
          if unbounded s <> unbounded f then
            fail a "reconfigured LP table bounds other channels than a fresh \
                    compile"
          else if Result.is_error (Lp.audit t.tgraph ~thresholds:s) then
            fail a "reconfigured LP table fails the run-sum audit"
        | Compiler.Exact | Compiler.Auto ->
          if s <> f then
            fail a "reconfigured table differs from a fresh compile"))
    (List.rev a.tables)

(* Exhaustive wedge search on samples of the served tables. A reachable
   wedge is a failure; a search that exhausts its state budget decides
   nothing; a sample that proves no table wedge-free is a failure too,
   so the check cannot pass without proving anything.

   - Admitted tables: a seeded sample of the dozen small graphs (at most
     6 nodes and 8 edges) with the least total buffering, run with 2
     inputs, until 3 are proven or 6 tried.
   - Reconfigured tables: the graphs a reconfigure produced, fewest
     edges and least buffering first, run with 1 input (rollout's fleet
     chains are 21 edges and up), until one is proven or 4 tried.

   The state space grows with buffer capacity and graph size, hence the
   orderings. Returns (tried, proven) for each sample. *)
let buffering g = Graph.fold_edges g ~init:0 ~f:(fun n e -> n + e.Graph.cap)

let by_size l =
  List.sort_uniq
    (fun (g, _) (h, _) ->
      compare
        (Graph.num_edges g, buffering g, Thresholds.graph_fingerprint g)
        (Graph.num_edges h, buffering h, Thresholds.graph_fingerprint h))
    l

let prove a ~what ~inputs ~max_states ~want ~tries cands =
  let n = Array.length cands in
  let rec go i proven =
    if i >= n || i >= tries || proven >= want then (i, proven)
    else begin
      let g, avoidance = cands.(i) in
      match
        Verify.check ~max_states ~strategy:`Dfs ~graph:g ~avoidance ~inputs ()
      with
      | Verify.Safe _ -> go (i + 1) (proven + 1)
      | Verify.Out_of_budget _ -> go (i + 1) proven
      | Verify.Deadlocks _ ->
        fail a "%s table (%d nodes, %d edges) has a reachable wedge" what
          (Graph.num_nodes g) (Graph.num_edges g);
        go (i + 1) proven
    end
  in
  let tried, proven = go 0 0 in
  if proven = 0 then
    fail a "no %s table proven wedge-free (%d of %d candidates tried)" what
      tried n;
  (tried, proven)

let check_verify a =
  let small =
    List.filter_map
      (fun (r : run_rec) ->
        if Graph.num_nodes r.graph <= 6 && Graph.num_edges r.graph <= 8 then
          Some (r.graph, r.avoidance)
        else None)
      a.runs
    |> List.sort_uniq (fun (g, _) (h, _) ->
           compare
             (buffering g, Thresholds.graph_fingerprint g)
             (buffering h, Thresholds.graph_fingerprint h))
    |> List.filteri (fun i _ -> i < 12)
    |> Array.of_list
  in
  Gen.shuffle (Gen.rng a.seed 99) small;
  let admitted =
    prove a ~what:"admitted" ~inputs:2 ~max_states:100_000 ~want:3 ~tries:6
      small
  in
  let reconfigured =
    prove a ~what:"reconfigured" ~inputs:1 ~max_states:250_000 ~want:1
      ~tries:4
      (by_size (List.map (fun (t : table_rec) -> (t.tgraph, t.table)) a.tables)
      |> Array.of_list)
  in
  (admitted, reconfigured)

(* Distinct (topology, backend) pairs, in first-seen order. *)
let distinct_topos a =
  let seen = Hashtbl.create 256 in
  List.filter
    (fun (g, b) ->
      let k = (Thresholds.graph_fingerprint g, b) in
      if Hashtbl.mem seen k then false
      else (
        Hashtbl.add seen k ();
        true))
    (List.rev a.topos)

let distinct_edits a =
  let seen = Hashtbl.create 256 in
  List.filter
    (fun (e : edit_rec) ->
      let k = (Thresholds.graph_fingerprint e.base, e.ops, e.ebackend) in
      if Hashtbl.mem seen k then false
      else (
        Hashtbl.add seen k ();
        true))
    (List.rev a.edits)

type layers = {
  cycles_found : int;
  compiles : int;
  lp_routes : int;
  lp_rows : int;
  spliced : int;
  recomputed : int;
}

let rec lp_rows = function
  | Compiler.Lp_route { rows; _ } -> rows
  | Compiler.Min_route { lp; _ } -> lp_rows lp
  | Compiler.Cs4_route _ | Compiler.General_route _ -> 0

(* Traced: each layer's public entry point on every distinct topology
   and edit the workload produced. *)
let replay_layers a =
  let cycles_found = ref 0
  and compiles = ref 0
  and lp_routes = ref 0
  and rows = ref 0
  and spliced = ref 0
  and recomputed = ref 0 in
  List.iter
    (fun (g, backend) ->
      let id = Trace.fresh () in
      let t0 = Trace.now () in
      let config =
        {
          Lint.default_config with
          algorithm = Compiler.Non_propagation;
          backend;
        }
      in
      ignore (Trace.timed ~parent:id "lint.run" (fun () -> Lint.run ~config g));
      let n, _ =
        Trace.timed ~parent:id "cycles.count" (fun () -> Cycles.count g)
      in
      cycles_found := !cycles_found + n;
      ignore (Trace.timed ~parent:id "cs4.classify" (fun () -> Cs4.classify g));
      let plan, _ =
        Trace.timed ~parent:id "compiler.compile" (fun () ->
            Compiler.compile ~options:(options backend)
              Compiler.Non_propagation g)
      in
      (match plan with
      | Ok p ->
        incr compiles;
        let k = lp_rows p.Compiler.route in
        if k > 0 then incr lp_routes;
        rows := !rows + k
      | Error e -> fail a "replayed compile: %s" (Compiler.error_to_string e));
      Trace.emit ~id "replay.topology" t0 (Trace.now ()))
    (distinct_topos a);
  List.iter
    (fun (e : edit_rec) ->
      match Edit.apply e.base e.ops with
      | Error msg -> fail a "replayed edit does not apply: %s" msg
      | Ok delta -> (
        let id = Trace.fresh () in
        let t0 = Trace.now () in
        let options = options e.ebackend in
        let cache = Compiler.cache_create () in
        match
          Compiler.compile_cached ~options cache Compiler.Non_propagation
            e.base
        with
        | Error err ->
          fail a "replayed base compile: %s" (Compiler.error_to_string err)
        | Ok _ -> (
          let r, _ =
            Trace.timed ~parent:id "compiler.recompile" (fun () ->
                Compiler.recompile ~options cache Compiler.Non_propagation
                  delta)
          in
          Trace.emit ~id "replay.edit" t0 (Trace.now ());
          match r with
          | Ok (_, st) ->
            spliced := !spliced + st.Compiler.spliced_edges;
            recomputed := !recomputed + st.Compiler.recomputed_edges
          | Error err ->
            fail a "replayed recompile: %s" (Compiler.error_to_string err))))
    (distinct_edits a);
  {
    cycles_found = !cycles_found;
    compiles = !compiles;
    lp_routes = !lp_routes;
    lp_rows = !rows;
    spliced = !spliced;
    recomputed = !recomputed;
  }
