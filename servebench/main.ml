(* Serving benchmark: one process drives a workload against
   [Fstream_serve.Serve], checks every output, and prints its metrics.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Untraced ([--trace 0]), it sets the server up several times (the
   median is [setup_s]), runs the workload for S seconds and reports the
   end-to-end metrics. Traced ([--trace 1]), it runs the workload once
   untraced and once with spans around every call, replays the lower
   layers on the same generated inputs, and reports the per-layer
   metrics. Either way the last line of standard output is one JSON
   object; the exit code is 0 only if every check passed. *)

module Serve = Fstream_serve.Serve
module Report = Fstream_runtime.Report
open Workloads

let setups = 21

let sum_reports a f =
  List.fold_left (fun n (r : run_rec) -> n + f r.report) 0 a.runs

let data a = sum_reports a (fun r -> r.Report.data_messages)
let dummies a = sum_reports a (fun r -> r.Report.dummy_messages)

(* Set the workload up, run it, tear it down. *)
let pass (w : Workloads.t) ~seed ~seconds =
  let inst = w.setup seed in
  let a = acc_create seed in
  Fun.protect
    ~finally:(fun () -> inst.shutdown ())
    (fun () ->
      inst.run a ~seconds;
      (a, inst.stats ()))

let checks_s = ref 0.0
let verified = ref ((0, 0), (0, 0))

let checks a =
  let t0 = Trace.now () in
  Fun.protect ~finally:(fun () ->
      checks_s := !checks_s +. (Trace.now () -. t0))
  @@ fun () ->
  let engine = Replay.check_runs a in
  Replay.check_tables a;
  verified := Replay.check_verify a;
  engine

let end_to_end a ~setup_s ~rss =
  let open Stats in
  let n x = float (List.length x) in
  [
    metric "tenant_latency_p50_s" "s" (p50 a.latency);
    metric "tenant_latency_p95_s" "s" (p95 a.latency);
    metric "tenants_per_s" "1/s" (n a.runs /. a.window);
    metric "delivered_per_s" "1/s"
      (float (sum_reports a (fun r -> r.Report.sink_data)) /. a.window);
    metric "admit_p50_s" "s" (p50 a.admit);
    metric "reconfigure_p50_s" "s" (p50 a.reconf);
    metric "reconfigure_p95_s" "s" (p95 a.reconf);
    metric "reconfigures_per_s" "1/s" (n a.reconf /. a.window);
    metric "dummy_per_data" "ratio"
      (ratio (float (dummies a)) (float (data a)));
    metric "setup_s" "s" setup_s;
    metric "peak_rss_mb" "MiB" rss;
  ]

(* Worker time per message while the pool had live work: the union of
   the runs' start-to-await intervals, times the pool width. *)
let pool_ns_per_message a =
  let ivs = List.map (fun (r : run_rec) -> (r.t_start, r.t_end)) a.runs in
  let busy = Trace.covered ~lo:neg_infinity ~hi:infinity ivs in
  Stats.ratio
    (busy *. float (pool_domains ()) *. 1e9)
    (float (data a + dummies a))

let per_layer a (st : Serve.stats) (eng : Replay.engine_totals)
    (l : Replay.layers) ~overhead =
  let open Stats in
  let spans = Trace.all () in
  let self = Trace.self_times spans in
  let s name = Trace.self_of spans self name in
  let lint = s "lint.run" and cyc = s "cycles.count" in
  let recompile = s "compiler.recompile" and compile = s "compiler.compile" in
  let runs = List.map (fun (r : run_rec) -> r.t_end -. r.t_start) a.runs in
  let dropped = sum_reports a (fun r -> r.Report.dropped_dummies) in
  let n x = float (List.length x) in
  [
    metric "lint.run_s.p50" "s" (p50 lint);
    metric "lint.run_s.p99" "s" (p99 lint);
    metric "lint.run_s.total" "s" (sum lint);
    metric "cycles.count_s.p99" "s" (p99 cyc);
    metric "cycles.found_per_ms" "1/ms"
      (ratio (float l.cycles_found) (sum cyc *. 1e3));
    metric "cs4.classify_s.p99" "s" (p99 (s "cs4.classify"));
    metric "compiler.compile_s.p50" "s" (p50 compile);
    metric "compiler.compile_s.p99" "s" (p99 compile);
    metric "compiler.route_lp_share" "ratio"
      (ratio (float l.lp_routes) (float l.compiles));
    metric "lp.rows.total" "count" (float l.lp_rows);
    metric "compiler.recompile_s.p50" "s" (p50 recompile);
    metric "compiler.recompile_s.p99" "s" (p99 recompile);
    metric "compiler.spliced_share" "ratio"
      (ratio (float l.spliced) (float (l.spliced + l.recomputed)));
    metric "serve.reconfigure_hit_share" "ratio"
      (ratio (float a.reconf_hits) (n a.reconf));
    metric "serve.recompiles" "count" (float st.Serve.recompiles);
    metric "serve.warm_pivots" "count" (float st.Serve.warm_pivots);
    metric "serve.admit_s.p50" "s" (p50 (s "serve.admit"));
    metric "serve.admit_s.p99" "s" (p99 (s "serve.admit"));
    metric "serve.admit_hit_share" "ratio"
      (ratio (float a.admit_hits) (n a.admit));
    metric "serve.start_s.p50" "s" (p50 (s "serve.start"));
    metric "serve.await_block_s.total" "s" (sum (s "serve.await"));
    metric "serve.reconfigure_s.p99" "s" (p99 (s "serve.reconfigure"));
    metric "serve.rejections" "count" (float st.Serve.rejections);
    metric "engine.ns_per_message" "ns/msg"
      (ratio (eng.seconds *. 1e9) (float eng.messages));
    metric "engine.minor_words_per_message" "words/msg"
      (ratio eng.minor_words (float eng.messages));
    metric "engine.dummy_per_data" "ratio"
      (ratio (float eng.dummies) (float eng.data));
    metric "engine.dropped_dummy_share" "ratio"
      (ratio (float eng.dropped) (float eng.dummies));
    metric "pool.run_s.p50" "s" (p50 runs);
    metric "pool.run_s.p99" "s" (p99 runs);
    metric "pool.ns_per_message" "ns/msg" (pool_ns_per_message a);
    metric "pool.dummy_per_data" "ratio"
      (ratio (float (dummies a)) (float (data a)));
    metric "pool.dropped_dummy_share" "ratio"
      (ratio (float dropped) (float (dummies a)));
    metric "load.lag_s.p99" "s" (p99 a.lag);
    metric "trace.overhead_share" "ratio" overhead;
  ]

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let span_file (w : Workloads.t) seed =
  let dir = ".bench_out" in
  mkdir_p dir;
  Filename.concat dir
    (Printf.sprintf "servebench-spans-%s-seed%d.jsonl" w.name seed)

let main ~workload ~seed ~seconds ~trace =
  let w =
    match List.find_opt (fun (w : Workloads.t) -> w.name = workload) all with
    | Some w -> w
    | None ->
      Printf.eprintf "servebench: unknown workload %S (one of: %s)\n" workload
        (String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) all));
      exit 2
  in
  let seconds = float seconds in
  let info a =
    let open Stats in
    Printf.printf
      "{\"run\": {\"workload\": %S, \"seed\": %d, \"nproc\": %d, \
       \"pool_domains\": %d, \"offered_rate_per_s\": %s, \"run_seconds\": \
       %g, \"measured_s\": %.3f, \"trace\": %b, \"tenants\": %d, \
       \"latency_beyond_p95\": %d, \"admits\": %d, \"admit_beyond_p95\": %d, \
       \"reconfigures\": %d, \"reconfigure_beyond_p95\": %d, \
       \"failed_share\": %g, \"checks_s\": %.3f, \"verify_tried\": %d, \
       \"verify_safe\": %d, \"verify_reconfigured_tried\": %d, \
       \"verify_reconfigured_safe\": %d}}\n"
      w.name seed
      (Domain.recommended_domain_count ())
      (pool_domains ())
      (match w.offered_rate with
      | Some r -> Printf.sprintf "%g" r
      | None -> "null")
      seconds a.window trace (List.length a.latency)
      (beyond_p95 (List.length a.latency))
      (List.length a.admit)
      (beyond_p95 (List.length a.admit))
      (List.length a.reconf)
      (beyond_p95 (List.length a.reconf))
      (ratio (float a.failed) (float a.attempted))
      !checks_s
      (fst (fst !verified))
      (snd (fst !verified))
      (fst (snd !verified))
      (snd (snd !verified))
  in
  let print_metrics ms =
    List.iter
      (fun (m : Stats.metric) ->
        Printf.printf "  %-34s %14.6g %s\n" m.name m.value m.unit_)
      ms
  in
  let a, ms =
    if not trace then begin
      (* set up [setups] times, each from a collected heap; the median
         is the metric, the last one serves *)
      let timed_setup () =
        Gc.full_major ();
        let t0 = Trace.now () in
        let inst = w.setup seed in
        (inst, Trace.now () -. t0)
      in
      let times =
        List.init (setups - 1) (fun _ ->
            let inst, dt = timed_setup () in
            inst.shutdown ();
            dt)
      in
      let inst, dt = timed_setup () in
      let setup_s = Stats.p50 (dt :: times) in
      let a = acc_create seed in
      Fun.protect
        ~finally:(fun () -> inst.shutdown ())
        (fun () -> inst.run a ~seconds);
      let rss =
        match a.rss_mb with Some r -> r | None -> Stats.peak_rss_mb ()
      in
      ignore (checks a);
      (a, end_to_end a ~setup_s ~rss)
    end
    else begin
      let base, _ = pass w ~seed ~seconds in
      ignore (checks base);
      Trace.enable ();
      let a, st = pass w ~seed ~seconds in
      let eng = checks a in
      let layers = Replay.replay_layers a in
      Trace.disable ();
      let overhead =
        Stats.ratio
          (Stats.p50 a.latency -. Stats.p50 base.latency)
          (Stats.p50 base.latency)
      in
      a.failed <- a.failed + base.failed;
      a.attempted <- a.attempted + base.attempted;
      Trace.write (span_file w seed) (Trace.all ());
      (a, per_layer a st eng layers ~overhead)
    end
  in
  info a;
  print_metrics ms;
  let correct = a.failed = 0 in
  print_endline
    (Stats.result_line ~correct ~attempted:a.attempted ~failed:a.failed ms);
  exit (if correct then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 15 in
  let trace = ref 0 in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME serve-steady | admit-churn | rollout" );
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S measured run length");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ]
    (fun x -> raise (Arg.Bad ("unexpected argument " ^ x)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "servebench: --seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end;
  match
    main ~workload:!workload ~seed:!seed ~seconds:!seconds
      ~trace:(!trace = 1)
  with
  | () -> ()
  | exception (Failure msg | Invalid_argument msg) ->
    prerr_endline ("servebench: " ^ msg);
    exit 2
