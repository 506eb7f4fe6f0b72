(* The three workloads, driven against one [Serve.t] from this process.

   Every call into the server goes through the helpers below, which time
   it (the end-to-end figures need the clock whether or not tracing is
   on), record a span when tracing is on, and keep what the output
   checks need once the timed window is over. *)

open Fstream_graph
module Serve = Fstream_serve.Serve
module Compiler = Fstream_core.Compiler
module Engine = Fstream_runtime.Engine
module Report = Fstream_runtime.Report

let mode = Serve.Non_propagation

(* The generator runs on the main domain; the pool gets the rest. *)
let pool_domains () = max 1 (Domain.recommended_domain_count () - 1)

(* One tenant run, as the server executed it. *)
type run_rec = {
  topo : Gen.topo;
  graph : Graph.t;
  avoidance : Engine.avoidance;
  key : int;
  inputs : int;
  report : Report.t;
  t_start : float;
  t_end : float;  (** when [Serve.await] returned *)
}

(* A session's table right after a reconfigure, for the table check. *)
type table_rec = {
  tgraph : Graph.t;
  table : Engine.avoidance;
  tbackend : Compiler.backend;
}

(* An accepted edit, for the recompile replay. *)
type edit_rec = {
  base : Graph.t;
  ops : Edit.op list;
  ebackend : Compiler.backend;
}

type acc = {
  m : Mutex.t;
  seed : int;
  mutable runs : run_rec list;
  mutable latency : float list;
  mutable admit : float list;
  mutable admit_hits : int;
  mutable reconf : float list;
  mutable reconf_hits : int;
  mutable start : float list;
  mutable await_block : float list;
  mutable lag : float list;
  mutable tables : table_rec list;
  mutable edits : edit_rec list;
  mutable topos : (Graph.t * Compiler.backend) list;
  mutable attempted : int;
  mutable failed : int;
  mutable window : float;  (** seconds the workload loop ran *)
  mutable completed : int;
  mutable rss_mb : float option;  (** VmHWM at the [rss_after]th run *)
}

(* Peak RSS is read once this many tenant runs have completed: a fixed
   amount of work, so the per-run records kept for the output checks,
   which grow with throughput, do not read as a memory regression when a
   change raises throughput. *)
let rss_after = 1000

let acc_create seed =
  {
    m = Mutex.create ();
    seed;
    runs = [];
    latency = [];
    admit = [];
    admit_hits = 0;
    reconf = [];
    reconf_hits = 0;
    start = [];
    await_block = [];
    lag = [];
    tables = [];
    edits = [];
    topos = [];
    attempted = 0;
    failed = 0;
    window = 0.0;
    completed = 0;
    rss_mb = None;
  }

let locked a f =
  Mutex.lock a.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock a.m) f

let fail a fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("servebench: " ^ msg);
      locked a (fun () -> a.failed <- a.failed + 1))
    fmt

let attempt a = locked a (fun () -> a.attempted <- a.attempted + 1)

(* Serve.admit. A registry hit is an admission that compiled nothing. *)
let admit a server ~tenant ~parent (t : Gen.topo) =
  attempt a;
  let before = (Serve.stats server).Serve.compiles in
  let r, dt =
    Trace.timed ~parent ~tenant "serve.admit" (fun () ->
        Serve.admit server ~backend:t.backend ~mode t.graph)
  in
  match r with
  | Ok s ->
    let hit = (Serve.stats server).Serve.compiles = before in
    locked a (fun () ->
        a.admit <- dt :: a.admit;
        if hit then a.admit_hits <- a.admit_hits + 1;
        a.topos <- (t.graph, t.backend) :: a.topos);
    Some s
  | Error e ->
    fail a "tenant %d (%s) rejected: %s" tenant t.label
      (Format.asprintf "%a" Serve.pp_rejection e);
    None

(* Serve.reconfigure. [Ok None] is a registry hit. The caller holds
   whatever keeps the session from being restarted meanwhile. *)
let reconfigure a server ~tenant ~parent (t : Gen.topo) s ops =
  attempt a;
  let base = Serve.graph s in
  let r, dt =
    Trace.timed ~parent ~tenant "serve.reconfigure" (fun () ->
        Serve.reconfigure server s ops)
  in
  match r with
  | Ok stats ->
    let g = Serve.graph s in
    let table = Serve.avoidance s in
    locked a (fun () ->
        a.reconf <- dt :: a.reconf;
        if stats = None then a.reconf_hits <- a.reconf_hits + 1;
        a.tables <- { tgraph = g; table; tbackend = t.backend } :: a.tables;
        a.edits <- { base; ops; ebackend = t.backend } :: a.edits;
        a.topos <- (g, t.backend) :: a.topos);
    true
  | Error e ->
    fail a "tenant %d (%s) reconfigure rejected: %s" tenant t.label
      (Format.asprintf "%a" Serve.pp_rejection e);
    false

type started = {
  sgraph : Graph.t;
  savoidance : Engine.avoidance;
  skey : int;
  sinputs : int;
  st0 : float;
}

(* Serve.start on the session's current epoch. *)
let start a server ~tenant ~parent (t : Gen.topo) s ~key ~inputs =
  attempt a;
  let g = Serve.graph s and av = Serve.avoidance s in
  let kernels = Gen.kernels ~seed:a.seed ~key t g in
  let st0 = Trace.now () in
  let (), dt =
    Trace.timed ~parent ~tenant "serve.start" (fun () ->
        Serve.start server ~kernels ~inputs s)
  in
  locked a (fun () -> a.start <- dt :: a.start);
  { sgraph = g; savoidance = av; skey = key; sinputs = inputs; st0 }

(* Serve.await; the tenant's latency runs from [since]. A run awaited
   with [~latency:false] counts as a completed run but adds no latency
   sample. *)
let finish ?(latency = true) a ~tid ~tenant ~since (t : Gen.topo) s p =
  match
    Trace.timed ~parent:tid ~tenant "serve.await" (fun () -> Serve.await s)
  with
  | exception e ->
    fail a "tenant %d (%s) raised %s" tenant t.label (Printexc.to_string e)
  | report, dt ->
    let t_end = Trace.now () in
    Trace.emit ~id:tid ~tenant "tenant" since t_end;
    if report.Report.outcome <> Report.Completed then
      fail a "tenant %d (%s): run did not complete (%s)" tenant t.label
        (Format.asprintf "%a" Report.pp_outcome report.Report.outcome);
    locked a (fun () ->
        a.await_block <- dt :: a.await_block;
        if latency then a.latency <- (t_end -. since) :: a.latency;
        a.runs <-
          {
            topo = t;
            graph = p.sgraph;
            avoidance = p.savoidance;
            key = p.skey;
            inputs = p.sinputs;
            report;
            t_start = p.st0;
            t_end;
          }
          :: a.runs;
        a.completed <- a.completed + 1;
        if a.completed = rss_after then a.rss_mb <- Some (Stats.peak_rss_mb ()))

(* Awaits sessions in the order they were handed over, on [waiters]
   threads of the main domain that are blocked whenever they are not
   bookkeeping. Each waiter takes the next session handed over, so a
   tenant that finishes early is not stamped behind a slower one handed
   over before it while fewer than [waiters] are in flight. *)
module Collector = struct
  type t = {
    q : (unit -> unit) Queue.t;
    qm : Mutex.t;
    qc : Condition.t;
    mutable closed : bool;
    mutable th : Thread.t list;
  }

  let push t f =
    Mutex.lock t.qm;
    Queue.push f t.q;
    Condition.signal t.qc;
    Mutex.unlock t.qm

  let rec loop t =
    Mutex.lock t.qm;
    while Queue.is_empty t.q && not t.closed do
      Condition.wait t.qc t.qm
    done;
    match Queue.take_opt t.q with
    | None -> Mutex.unlock t.qm
    | Some f ->
      Mutex.unlock t.qm;
      f ();
      loop t

  let waiters = 8

  let create () =
    let t =
      {
        q = Queue.create ();
        qm = Mutex.create ();
        qc = Condition.create ();
        closed = false;
        th = [];
      }
    in
    t.th <- List.init waiters (fun _ -> Thread.create loop t);
    t

  (* Stop once everything handed over is done. *)
  let finish t =
    Mutex.lock t.qm;
    t.closed <- true;
    Condition.broadcast t.qc;
    Mutex.unlock t.qm;
    List.iter Thread.join t.th
end

(* Open-loop arrivals at a fixed [rate] of tenants/s, dealt from
   shuffled decks of [catalog] entries with Zipf popularity, until
   [deadline]. Arrival [i] takes its entry as [vary i entry] (by default
   the entry itself). Each tenant is
   admitted, optionally reconfigured to its entry's [profile], started,
   and handed to the collector; its latency runs from its due time. The
   schedule does not depend on the server, so a slow server meets the
   same arrivals, late. Evenly spaced arrivals keep the queueing tail a
   property of the server rather than of one seed's bursts.

   With [~spin:true] the generator waits for each due time by spinning
   and yielding to the domain's other threads instead of sleeping, so
   the main domain never halts its vCPU. On a shared VM a halted vCPU
   wakes when the host gets round to it, and every report wake-up and
   every stop-the-world minor collection of the pool worker waits for
   that. Where the main domain has work of its own (rollout), spinning
   slowed the fleet instead: in four paired runs its p50 latency rose by
   2-10%. *)
let open_loop ?latency ?(vary = fun _ t -> t) ?(spin = false) a server col
    ~salt ~rate ~deadline ~catalog ~profile ~inputs =
  let deck_size = 100 in
  let deck = Gen.zipf_deck (Array.length catalog) deck_size in
  let rec arrive i due =
    if i mod deck_size = 0 then
      Gen.shuffle (Gen.rng a.seed ((salt * 1_000_000) + i)) deck;
    if due < deadline then begin
      if spin then
        while Trace.now () < due do
          Thread.yield ()
        done
      else begin
        let w = due -. Trace.now () in
        if w > 0.0 then Unix.sleepf w
      end;
      let lag = Trace.now () -. due in
      locked a (fun () -> a.lag <- lag :: a.lag);
      let c = deck.(i mod deck_size) in
      let t = vary i catalog.(c) in
      let tenant = (salt * 1_000_000) + i in
      let tid = Trace.fresh () in
      (match admit a server ~tenant ~parent:tid t with
      | None -> ()
      | Some s ->
        let ok =
          match profile with
          | None -> true
          | Some p -> reconfigure a server ~tenant ~parent:tid t s p.(c)
        in
        if ok then begin
          let p = start a server ~tenant ~parent:tid t s ~key:tenant ~inputs in
          Collector.push col (fun () ->
              finish ?latency a ~tid ~tenant ~since:due t s p)
        end);
      arrive (i + 1) (due +. (1.0 /. rate))
    end
  in
  arrive 0 (Trace.now ())

let admit_exn server (t : Gen.topo) =
  match Serve.admit server ~backend:t.backend ~mode t.graph with
  | Ok s -> s
  | Error e ->
    failwith
      (Format.asprintf "set-up admission of %s rejected: %a" t.label
         Serve.pp_rejection e)

(* Admit every catalog entry (and its profile edit) and run it once, so
   the registry and lint cache hold the whole catalog. *)
let warm_catalog server ~seed catalog ~profile ~inputs =
  Array.iteri
    (fun i (t : Gen.topo) ->
      let s = admit_exn server t in
      (match profile with
      | None -> ()
      | Some p -> (
        match Serve.reconfigure server s p.(i) with
        | Ok _ -> ()
        | Error e ->
          failwith
            (Format.asprintf "set-up reconfigure of %s rejected: %a" t.label
               Serve.pp_rejection e)));
      let g = Serve.graph s in
      ignore
        (Serve.run server
           ~kernels:(Gen.kernels ~seed ~key:(-1 - i) t g)
           ~inputs s))
    catalog

(* A set-up server: the loop to measure, its counters, its teardown. *)
type instance = {
  run : acc -> seconds:float -> unit;
  stats : unit -> Serve.stats;
  shutdown : unit -> unit;
}

let instance server run =
  {
    run;
    stats = (fun () -> Serve.stats server);
    shutdown = (fun () -> Serve.shutdown server);
  }

(* A workload: [setup seed] builds a warmed server. *)
type t = {
  name : string;
  offered_rate : float option;  (** tenants/s for an open loop *)
  setup : int -> instance;
}

(* serve-steady: open loop over a warmed 16-entry catalog. Each arriving
   tenant is admitted and then resized to its entry's buffer profile
   (a reconfigure on an idle session), both registry hits after set-up,
   so the time goes to the message path. *)
let steady_rate = 75.0
let steady_inputs = 400

let serve_steady =
  {
    name = "serve-steady";
    offered_rate = Some steady_rate;
    setup =
      (fun seed ->
        let server = Serve.create ~domains:(pool_domains ()) () in
        let catalog = Gen.steady_catalog in
        let r = Gen.rng seed 2 in
        let profile =
          Array.map (fun (t : Gen.topo) -> Gen.resize r t.graph) catalog
        in
        warm_catalog server ~seed catalog ~profile:(Some profile)
          ~inputs:steady_inputs;
        let run a ~seconds =
          let col = Collector.create () in
          let t0 = Trace.now () in
          open_loop ~spin:true a server col ~salt:3 ~rate:steady_rate
            ~deadline:(t0 +. seconds) ~catalog ~profile:(Some profile)
            ~inputs:steady_inputs;
          Collector.finish col;
          a.window <- Trace.now () -. t0
        in
        instance server run);
  }

(* admit-churn: closed loop, one client, every topology new. The deck
   fixes the share of each family and size, so the tail lands on the
   same class whatever the seed and however many tenants fit in the
   run: 7-block chains (7.6%) hold both p95 and p99, the rarer 8-block
   chains sit beyond them. *)
type cls = Chain of int | Layered of int * int | Rdense of int * int

let churn_deck =
  List.concat_map
    (fun (c, n) -> List.init n (fun _ -> c))
    [
      (Chain 1, 62);
      (Chain 2, 62);
      (Chain 3, 62);
      (Chain 4, 62);
      (Chain 5, 32);
      (Chain 6, 6);
      (Chain 7, 32);
      (Chain 8, 1);
      (Layered (2, 2), 5);
      (Layered (2, 3), 5);
      (Layered (3, 2), 5);
      (Layered (4, 2), 5);
      (Layered (3, 3), 3);
      (Rdense (2, 2), 13);
      (Rdense (2, 3), 13);
      (Rdense (3, 2), 13);
      (Rdense (3, 3), 13);
      (Rdense (4, 2), 13);
      (Rdense (4, 3), 13);
    ]
  |> Array.of_list

let churn_inputs = 24

(* Tenant [i]: slot [i mod n] of deck [i / n], each deck shuffled from
   the seed. Chains of 5+ blocks take their reference shapes in turn
   within a deck, so every full deck holds the same shapes. *)
let churn_topo seed i =
  let n = Array.length churn_deck in
  let deck = Array.copy churn_deck in
  Gen.shuffle (Gen.rng seed (10_000 + (i / n))) deck;
  let slot = i mod n in
  let shape = ref 0 in
  for j = 0 to slot - 1 do
    if deck.(j) = deck.(slot) then incr shape
  done;
  let r = Gen.rng seed (1_000_000 + i) in
  match deck.(slot) with
  | Chain blocks when blocks >= 5 ->
    Gen.recap r (Gen.reference_chain ~blocks ~shape:!shape)
  | Chain blocks -> Gen.cs4_chain r ~blocks
  | Layered (layers, width) -> Gen.dense r ~layered:true ~layers ~width
  | Rdense (layers, width) -> Gen.dense r ~layered:false ~layers ~width

let admit_churn =
  {
    name = "admit-churn";
    offered_rate = None;
    setup =
      (fun seed ->
        let server = Serve.create ~domains:(pool_domains ()) () in
        (* warm the lint, compile and LP paths on tenants of the deck's
           smaller classes *)
        let r = Gen.rng seed 4 in
        warm_catalog server ~seed
          (Array.init 16 (fun i ->
               if i mod 4 = 3 then
                 Gen.dense r ~layered:false ~layers:(2 + (i mod 3)) ~width:2
               else Gen.cs4_chain r ~blocks:(1 + (i mod 4))))
          ~profile:None ~inputs:churn_inputs;
        let run a ~seconds =
          let t0 = Trace.now () in
          let deadline = t0 +. seconds in
          let rec client i last =
            if Trace.now () < deadline then begin
              let t = churn_topo seed i in
              let edit = Gen.resize (Gen.rng seed (2_000_000 + i)) t.graph in
              let since = Trace.now () in
              locked a (fun () -> a.lag <- (since -. last) :: a.lag);
              let tid = Trace.fresh () in
              (match admit a server ~tenant:i ~parent:tid t with
              | None -> ()
              | Some s ->
                if reconfigure a server ~tenant:i ~parent:tid t s edit then
                  let p =
                    start a server ~tenant:i ~parent:tid t s ~key:i
                      ~inputs:churn_inputs
                  in
                  finish a ~tid ~tenant:i ~since t s p);
              client (i + 1) (Trace.now ())
            end
          in
          client 0 t0;
          a.window <- Trace.now () -. t0
        in
        instance server run);
  }

(* rollout: a fleet of long-lived CS4 tenants, each restarted as soon as
   its report is collected, edited in turn by one operator loop, while
   new short-lived tenants keep arriving. The newcomers are 1- and
   2-block chains of fixed shape with capacities drawn afresh for each
   arrival, so every admission is a registry miss whose lint and compile
   cost is set by the shape: a registry hit costs some 15 us, so its
   tail would time this process's own thread switches, not the server. *)
let fleet_size = 16
let fleet_inputs = 100
let rollout_rate = 200.0
let rollout_inputs = 50

let newcomers =
  Gen.
    [|
      reference_chain ~blocks:1 ~shape:0;
      reference_chain ~blocks:2 ~shape:0;
      reference_chain ~blocks:1 ~shape:1;
      reference_chain ~blocks:2 ~shape:1;
    |]

type member = {
  idx : int;
  topo : Gen.topo;
  session : Serve.session;
  lock : Mutex.t;  (** held across a reconfigure and across a restart *)
  mutable staged : (int * int) option;
      (** the stage this tenant's edits added: its node and the split
          edge's capacity, which removing it restores *)
}

(* The operator's next edit for [m]: undo a stage, add one, or step one
   channel's capacity. Always three draws, so the edit sequence is a
   function of the seed and the number of edits issued. *)
let next_edit r m g =
  let u = Random.State.float r 1.0 in
  let e = Random.State.int r (Graph.num_edges g) in
  let down = Random.State.bool r in
  let cap = (Graph.edge g e).Graph.cap in
  match m.staged with
  | Some (node, cap) when u < 0.5 ->
    (None, [ Edit.Remove_stage { node; cap = Some cap } ])
  | None when u < 0.3 ->
    ( Some (Graph.num_nodes g, cap),
      [ Edit.Add_stage { edge = e; cap_in = cap; cap_out = cap } ] )
  | _ ->
    let cap' = if (down && cap > 1) || cap >= 6 then cap - 1 else cap + 1 in
    (m.staged, [ Edit.Resize { edge = e; cap = cap' } ])

let rollout =
  {
    name = "rollout";
    offered_rate = Some rollout_rate;
    setup =
      (fun seed ->
        let server = Serve.create ~domains:(pool_domains ()) () in
        let fleet =
          Array.init fleet_size (fun idx ->
              let topo =
                Gen.reference_chain ~blocks:(3 + (idx mod 3)) ~shape:(idx / 3)
              in
              {
                idx;
                topo;
                session = admit_exn server topo;
                lock = Mutex.create ();
                staged = None;
              })
        in
        warm_catalog server ~seed newcomers ~profile:None
          ~inputs:rollout_inputs;
        let run a ~seconds =
          let col = Collector.create () in
          let t0 = Trace.now () in
          let deadline = t0 +. seconds in
          (* Each fleet member runs on a thread of its own that starts
             it, awaits it and restarts it, so its completion is stamped
             as soon as it quiesces, not behind another tenant's await.
             Run [n] of member [idx] is tenant key 21_000_000 + idx *
             100_000 + n whatever the interleaving, so its kernels are a
             function of the seed. *)
          let rec cycle m n =
            let tenant = (21 * 1_000_000) + (m.idx * 100_000) + n in
            let tid = Trace.fresh () in
            Mutex.lock m.lock;
            let p =
              Fun.protect
                ~finally:(fun () -> Mutex.unlock m.lock)
                (fun () ->
                  start a server ~tenant ~parent:tid m.topo m.session
                    ~key:tenant ~inputs:fleet_inputs)
            in
            finish a ~tid ~tenant ~since:p.st0 m.topo m.session p;
            if Trace.now () < deadline then cycle m (n + 1)
          in
          let members = Array.map (fun m -> Thread.create (cycle m) 0) fleet in
          (* newcomers count as completed runs, but only the fleet's
             runs are latency samples *)
          let traffic =
            Thread.create
              (fun () ->
                open_loop ~latency:false
                  ~vary:(fun i t -> Gen.recap (Gen.rng seed (3_000_000 + i)) t)
                  a server col ~salt:22 ~rate:rollout_rate ~deadline
                  ~catalog:newcomers ~profile:None ~inputs:rollout_inputs)
              ()
          in
          let r = Gen.rng seed 23 in
          let rec operate i =
            if Trace.now () < deadline then begin
              let m = fleet.(i mod fleet_size) in
              Mutex.lock m.lock;
              Fun.protect
                ~finally:(fun () -> Mutex.unlock m.lock)
                (fun () ->
                  let staged, ops = next_edit r m (Serve.graph m.session) in
                  if
                    reconfigure a server ~tenant:m.idx ~parent:(-1) m.topo
                      m.session ops
                  then m.staged <- staged);
              operate (i + 1)
            end
          in
          operate 0;
          Thread.join traffic;
          Array.iter Thread.join members;
          Collector.finish col;
          a.window <- Trace.now () -. t0
        in
        instance server run);
  }

let all = [ serve_steady; admit_churn; rollout ]
