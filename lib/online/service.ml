open Vp_core

type config = {
  disk : Vp_cost.Disk.t;
  panel : Partitioner.t list;
  drift_ratio : float;
  min_window : int;
  epoch : int;
  memory : int;
  horizon : float;
  budget_steps : int option;
  jobs : int;
  formats : bool;
}

let default_config ?(drift_ratio = 2.0) ?(min_window = 8) ?(epoch = 64)
    ?(memory = 32) ?(horizon = 1.0) ?budget_steps ?(jobs = 1)
    ?(formats = false) ~disk ~panel () =
  if panel = [] then invalid_arg "Service.default_config: empty panel";
  if drift_ratio <= 0.0 then
    invalid_arg "Service.default_config: drift_ratio <= 0";
  if min_window < 1 then invalid_arg "Service.default_config: min_window < 1";
  if epoch < 0 then invalid_arg "Service.default_config: epoch < 0";
  if memory < 0 then invalid_arg "Service.default_config: memory < 0";
  if horizon <= 0.0 then invalid_arg "Service.default_config: horizon <= 0";
  (match budget_steps with
  | Some n when n < 0 -> invalid_arg "Service.default_config: budget_steps < 0"
  | Some _ | None -> ());
  if jobs < 1 then invalid_arg "Service.default_config: jobs < 1";
  {
    disk;
    panel;
    drift_ratio;
    min_window;
    epoch;
    memory;
    horizon;
    budget_steps;
    jobs;
    formats;
  }

type trigger = Drift of float | Epoch

type verdict = Adopted | Rejected

type event = {
  generation : int;
  trigger_query : int;
  trigger : trigger;
  algorithm : string;
  cost_before : float;
  cost_after : float;
  migration : float;
  payoff : float;
  verdict : verdict;
}

type format_event = {
  f_generation : int;
  f_trigger_query : int;
  f_formats : string;
  f_cost_before : float;
  f_cost_after : float;
  f_migration : float;
  f_payoff : float;
  f_verdict : verdict;
}

type t = {
  config : config;
  table : Table.t;
  (* The stream in its first [ingested] slots; doubles when full. *)
  mutable queries : Query.t array;
  mutable layout : Partitioning.t;
  mutable generation : int;
  mutable ingested : int;
  mutable query_cost : float;
  mutable migration_cost : float;
  (* Sliding drift window: (cost, lower bound) of the last [min_window]
     queries, cleared after every decision so a rejected candidate does
     not refire on the very next query. *)
  ring : (float * float) array;
  mutable ring_len : int;
  mutable ring_pos : int;
  mutable since_decision : int;
  mutable events : event list; (* newest first *)
  (* Per-partition storage formats of the current layout (always the
     all-Plain vector when [config.formats] is off). *)
  mutable formats : Vp_storage.Format.t;
  mutable format_events : format_event list; (* newest first *)
}

let c_ingested = Vp_observe.Stats.counter "online.ingested"

let c_reopts = Vp_observe.Stats.counter "online.reopts"

let c_adopted = Vp_observe.Stats.counter "online.adopted"

let c_rejected = Vp_observe.Stats.counter "online.rejected"

let c_format_repicks = Vp_observe.Stats.counter "online.format_repicks"

let c_format_adopted = Vp_observe.Stats.counter "online.format_adopted"

let create config table =
  if config.panel = [] then invalid_arg "Service.create: empty panel";
  if config.min_window < 1 then invalid_arg "Service.create: min_window < 1";
  let n = Table.attribute_count table in
  {
    config;
    table;
    queries = [||];
    layout = Partitioning.row n;
    generation = 0;
    ingested = 0;
    query_cost = 0.0;
    migration_cost = 0.0;
    ring = Array.make config.min_window (0.0, 0.0);
    ring_len = 0;
    ring_pos = 0;
    since_decision = 0;
    events = [];
    formats = Vp_storage.Format.plain table (Partitioning.row n);
    format_events = [];
  }

let config t = t.config

let table t = t.table

let layout t = t.layout

let generation t = t.generation

let ingested t = t.ingested

let stream t = Array.to_list (Array.sub t.queries 0 t.ingested)

let workload t = Workload.make t.table (stream t)

let events t = List.rev t.events

let formats t = t.formats

let format_events t = List.rev t.format_events

let format_adoptions t =
  List.length (List.filter (fun e -> e.f_verdict = Adopted) t.format_events)

let reopts t = List.length t.events

let adoptions t =
  List.length (List.filter (fun e -> e.verdict = Adopted) t.events)

let cumulative_query_cost t = t.query_cost

let cumulative_migration_cost t = t.migration_cost

let cumulative_cost t = t.query_cost +. t.migration_cost

(* One re-optimization: race the panel over the whole ingested workload,
   each member under its own fresh step budget (sharing one budget across
   concurrent members would make exhaustion points depend on scheduling),
   then apply the pay-off adoption rule against the incumbent. Every
   input to the decision is a model estimate, so the decision — and the
   recorded event — is identical for every [jobs] value. *)
(* The workload the re-optimizer sees: the most recent [memory] queries
   (all of them when [memory = 0]). Bounding the memory is what lets the
   service actually track drift — over the full history the pre-drift
   queries dominate forever, and every post-drift candidate looks
   marginal. The full-history workload stays available via
   [workload]. *)
let recent_workload t =
  let memory = t.config.memory in
  let k = if memory = 0 then 0 else max 0 (t.ingested - memory) in
  Workload.make t.table (Array.to_list (Array.sub t.queries k (t.ingested - k)))

let push t q =
  let valid = Attr_set.full (Table.attribute_count t.table) in
  if not (Attr_set.subset (Query.references q) valid) then
    invalid_arg "Service.ingest: query references attributes outside the table";
  if t.ingested = Array.length t.queries then begin
    let grown = Array.make (max 16 (2 * t.ingested)) q in
    Array.blit t.queries 0 grown 0 t.ingested;
    t.queries <- grown
  end;
  t.queries.(t.ingested) <- q;
  t.ingested <- t.ingested + 1

let reoptimize t ~trigger =
  if Vp_observe.Switch.stats_on () then Vp_observe.Stats.incr c_reopts;
  let { disk; panel; horizon; budget_steps; jobs; _ } = t.config in
  let w = recent_workload t in
  let cost_before = Vp_cost.Io_model.workload_cost disk w t.layout in
  let label = Printf.sprintf "online:reopt%d" (reopts t + 1) in
  let run_panel () =
    Vp_parallel.Pool.with_pool ~jobs @@ fun pool ->
    Vp_parallel.Pool.map pool
      (fun (algo : Partitioner.t) ->
        (* One request, hence one session, per (algo, run), built inside
           the worker domain: sessions are never shared across domains. *)
        let budget =
          Option.map
            (fun max_steps -> Vp_robust.Budget.create ~max_steps ())
            budget_steps
        in
        Partitioner.exec algo (Vp_cost.Io_model.request ?budget ~label disk w))
      panel
  in
  let responses =
    (* Span args only on the traced path (zero-overhead contract). *)
    if Vp_observe.Switch.trace_on () then
      Vp_observe.Trace.with_span ~name:"online.reopt"
        ~args:
          [
            ("table", Table.name t.table);
            ("queries", string_of_int t.ingested);
            ( "trigger",
              match trigger with
              | Drift r -> Printf.sprintf "drift=%.4f" r
              | Epoch -> "epoch" );
          ]
        run_panel
    else run_panel ()
  in
  let winner =
    match responses with
    | [] -> assert false (* config validation forbids an empty panel *)
    | first :: rest ->
        List.fold_left
          (fun (best : Partitioner.Response.t) (r : Partitioner.Response.t) ->
            if r.Partitioner.Response.cost < best.Partitioner.Response.cost
            then r
            else best)
          first rest
  in
  let candidate = winner.Partitioner.Response.partitioning in
  (* The paper's pay-off factor with zero optimization time: wall-clock
     must not leak into the decision, or replays stop being
     deterministic. *)
  let payoff =
    Vp_metrics.Payoff.compute disk w ~optimization_time:0.0
      ~baseline:t.layout candidate
  in
  let factor = payoff.Vp_metrics.Payoff.factor in
  let adopt =
    payoff.Vp_metrics.Payoff.improvement > 0.0
    && factor >= 0.0
    && factor <= horizon
  in
  let event =
    {
      generation = (if adopt then t.generation + 1 else t.generation);
      trigger_query = t.ingested - 1;
      trigger;
      algorithm =
        winner.Partitioner.Response.provenance
          .Partitioner.Response.algorithm;
      cost_before;
      cost_after = winner.Partitioner.Response.cost;
      migration = payoff.Vp_metrics.Payoff.creation_time;
      payoff = factor;
      verdict = (if adopt then Adopted else Rejected);
    }
  in
  t.events <- event :: t.events;
  if adopt then begin
    if Vp_observe.Switch.stats_on () then Vp_observe.Stats.incr c_adopted;
    t.generation <- t.generation + 1;
    t.layout <- candidate;
    (* The adopted layout starts all-Plain (its migration estimate
       priced a Plain rewrite); the format re-pick below reconsiders. *)
    t.formats <- Vp_storage.Format.plain t.table candidate;
    t.migration_cost <- t.migration_cost +. event.migration
  end
  else if Vp_observe.Switch.stats_on () then Vp_observe.Stats.incr c_rejected;
  (* Per-partition format re-pick (opt-in): after the layout verdict,
     re-choose storage formats for the incumbent layout from schema
     statistics (deterministic — no data pass) and apply the same
     pay-off gate, charging fragment rewrites as migration. An adopted
     layout starts all-Plain: its migration estimate priced a Plain
     rewrite, and the re-pick below immediately reconsiders. *)
  if t.config.formats then begin
    let stats = Vp_storage.Format.schema_stats t.table in
    let chosen =
      Vp_storage.Format.choose disk t.table w t.layout stats
    in
    if not (Vp_storage.Format.equal chosen t.formats) then begin
      if Vp_observe.Switch.stats_on () then
        Vp_observe.Stats.incr c_format_repicks;
      let cost_before =
        Vp_storage.Format.scan_cost disk t.table w t.layout t.formats
      in
      let cost_after =
        Vp_storage.Format.scan_cost disk t.table w t.layout chosen
      in
      let migration =
        Vp_storage.Format.migration_cost disk t.table t.formats chosen
      in
      let improvement = cost_before -. cost_after in
      let factor =
        if improvement = 0.0 then infinity else migration /. improvement
      in
      let adopt_fmt =
        improvement > 0.0 && factor >= 0.0 && factor <= horizon
      in
      t.format_events <-
        {
          f_generation = t.generation;
          f_trigger_query = t.ingested - 1;
          f_formats = Vp_storage.Format.to_string chosen;
          f_cost_before = cost_before;
          f_cost_after = cost_after;
          f_migration = migration;
          f_payoff = factor;
          f_verdict = (if adopt_fmt then Adopted else Rejected);
        }
        :: t.format_events;
      if adopt_fmt then begin
        if Vp_observe.Switch.stats_on () then
          Vp_observe.Stats.incr c_format_adopted;
        t.formats <- chosen;
        t.migration_cost <- t.migration_cost +. migration
      end
    end
  end;
  (* Re-arm the window either way: a rejected candidate must not refire
     on the very next query. *)
  t.ring_len <- 0;
  t.ring_pos <- 0;
  t.since_decision <- 0

let ingest t q =
  if Vp_observe.Switch.stats_on () then Vp_observe.Stats.incr c_ingested;
  let { disk; drift_ratio; min_window; epoch; _ } = t.config in
  let weight = Query.weight q in
  let cost =
    weight *. Vp_cost.Io_model.query_cost disk t.table t.layout q
  in
  (* The per-query lower bound: read exactly the referenced attributes
     from one dedicated partition (the PMV cost of this query alone). *)
  let lower =
    weight
    *. Vp_cost.Io_model.query_cost_groups disk t.table [ Query.references q ]
  in
  push t q;
  t.query_cost <- t.query_cost +. cost;
  t.ring.(t.ring_pos) <- (cost, lower);
  t.ring_pos <- (t.ring_pos + 1) mod min_window;
  t.ring_len <- min (t.ring_len + 1) min_window;
  t.since_decision <- t.since_decision + 1;
  (* The ratio is recomputed over the (tiny) window rather than kept as
     running sums: no float-cancellation drift, bit-identical replays. *)
  let drift =
    if t.ring_len >= min_window then begin
      let current = ref 0.0 and lower = ref 0.0 in
      Array.iter
        (fun (c, l) ->
          current := !current +. c;
          lower := !lower +. l)
        t.ring;
      if !lower > 0.0 && !current /. !lower > drift_ratio then
        Some (!current /. !lower)
      else None
    end
    else None
  in
  match drift with
  | Some ratio -> reoptimize t ~trigger:(Drift ratio)
  | None ->
      if epoch > 0 && t.since_decision >= epoch then
        reoptimize t ~trigger:Epoch

let event_line (e : event) =
  Printf.sprintf
    "gen=%d at=%d %s algo=%s before=%.6f after=%.6f migration=%.6f \
     payoff=%.6f verdict=%s"
    e.generation e.trigger_query
    (match e.trigger with
    | Drift r -> Printf.sprintf "drift=%.4f" r
    | Epoch -> "epoch")
    e.algorithm e.cost_before e.cost_after e.migration e.payoff
    (match e.verdict with Adopted -> "adopted" | Rejected -> "rejected")

let format_event_line (e : format_event) =
  Printf.sprintf
    "gen=%d at=%d format=%s before=%.6f after=%.6f migration=%.6f \
     payoff=%.6f verdict=%s"
    e.f_generation e.f_trigger_query e.f_formats e.f_cost_before
    e.f_cost_after e.f_migration e.f_payoff
    (match e.f_verdict with Adopted -> "adopted" | Rejected -> "rejected")

let history t =
  (* Layout and format decisions interleave by triggering query (unique
     per re-optimization), the format line directly after its layout
     line. With [config.formats] off there are no format events and the
     history bytes are exactly the pre-formats ones. *)
  let fmts = format_events t in
  String.concat ""
    (List.concat_map
       (fun e ->
         (event_line e ^ "\n")
         :: List.filter_map
              (fun f ->
                if f.f_trigger_query = e.trigger_query then
                  Some (format_event_line f ^ "\n")
                else None)
              fmts)
       (events t))

(* --- snapshot / restore ---

   Every float crosses the snapshot as its IEEE-754 bit pattern in hex,
   never as a decimal rendering: [restore] must rebuild the exact values
   the live service held, or the byte-identical-history contract breaks
   on the first post-restore decision. The workload is not stored
   separately: it is rebuilt by re-adding the serialized queries in
   ingest order. *)

module C = Vp_observe.Json.Codec

let snapshot_version = 1

let query =
  C.(
    seal
      (obj (fun name refs weight ->
           try Query.make ~weight ~name ~references:(Attr_set.of_list refs) ()
           with Invalid_argument msg -> fail "invalid query: %s" msg)
      |> field "name" string Query.name
      |> field "refs" (list (int_in ~min:0 ())) (fun q ->
             Attr_set.to_list (Query.references q))
      |> field "w" float_bits Query.weight))

let query_to_json = C.encode query

let verdict = C.enum ~what:"verdict" [ ("adopted", Adopted); ("rejected", Rejected) ]

let event =
  C.(
    seal
      (obj (fun generation trigger_query kind ratio algorithm cost_before
                cost_after migration payoff verdict ->
           let trigger =
             match (kind, ratio) with
             | `Epoch, _ -> Epoch
             | `Drift, Some r -> Drift r
             | `Drift, None -> fail "drift event without a \"ratio\""
           in
           { generation; trigger_query; trigger; algorithm; cost_before;
             cost_after; migration; payoff; verdict })
      |> field "generation" int (fun (e : event) -> e.generation)
      |> field "at" int (fun e -> e.trigger_query)
      |> field "trigger"
           (enum ~what:"trigger" [ ("epoch", `Epoch); ("drift", `Drift) ])
           (fun e -> match e.trigger with Epoch -> `Epoch | Drift _ -> `Drift)
      |> opt "ratio" float_bits (fun e ->
             match e.trigger with Drift r -> Some r | Epoch -> None)
      |> field "algorithm" string (fun e -> e.algorithm)
      |> field "cost_before" float_bits (fun e -> e.cost_before)
      |> field "cost_after" float_bits (fun e -> e.cost_after)
      |> field "migration" float_bits (fun e -> e.migration)
      |> field "payoff" float_bits (fun e -> e.payoff)
      |> field "verdict" verdict (fun e -> e.verdict)))

let format_event =
  C.(
    seal
      (obj (fun f_generation f_trigger_query f_formats f_cost_before
                f_cost_after f_migration f_payoff f_verdict ->
           { f_generation; f_trigger_query; f_formats; f_cost_before;
             f_cost_after; f_migration; f_payoff; f_verdict })
      |> field "generation" int (fun e -> e.f_generation)
      |> field "at" int (fun e -> e.f_trigger_query)
      |> field "formats" string (fun e -> e.f_formats)
      |> field "cost_before" float_bits (fun e -> e.f_cost_before)
      |> field "cost_after" float_bits (fun e -> e.f_cost_after)
      |> field "migration" float_bits (fun e -> e.f_migration)
      |> field "payoff" float_bits (fun e -> e.f_payoff)
      |> field "verdict" verdict (fun e -> e.f_verdict)))

let format_kind =
  C.enum ~what:"format kind"
    (List.map
       (fun k -> (Vp_storage.Codec.kind_name k, k))
       Vp_storage.Codec.[ Plain; Dictionary; Varlen ])

(* The v1 snapshot. Decoding rebuilds the service under [config]; the
   checks across fields run once every field has decoded. [formats] and
   [format_events] were added later without a version bump: a snapshot
   without them restores all-Plain with no format decisions. *)
let snapshot_codec config =
  C.(
    seal
      (obj (fun version table generation ingested query_cost migration_cost
                ring ring_len ring_pos since_decision layout queries events
                formats format_events ->
           if version <> snapshot_version then
             fail "unsupported snapshot version %d" version;
           if List.length queries <> ingested then
             fail "snapshot holds %d queries but ingested=%d"
               (List.length queries) ingested;
           if List.length ring <> config.min_window then
             fail "snapshot ring has %d slots but config.min_window is %d"
               (List.length ring) config.min_window;
           if
             ring_len < 0 || ring_len > config.min_window || ring_pos < 0
             || ring_pos >= config.min_window || since_decision < 0
           then fail "ring bookkeeping out of range";
           let n = Table.attribute_count table in
           let layout =
             try Partitioning.of_groups ~n (List.map Attr_set.of_list layout)
             with Invalid_argument msg -> fail "invalid layout: %s" msg
           in
           let t = create config table in
           List.iter (push t) queries;
           t.layout <- layout;
           t.generation <- generation;
           t.query_cost <- query_cost;
           t.migration_cost <- migration_cost;
           List.iteri
             (fun i -> function
               | [ c; l ] -> t.ring.(i) <- (c, l)
               | _ -> fail "ring entries must be [cost, lower] pairs")
             ring;
           t.ring_len <- ring_len;
           t.ring_pos <- ring_pos;
           t.since_decision <- since_decision;
           t.events <- List.rev events;
           (t.formats <-
              match formats with
              | None -> Vp_storage.Format.plain table layout
              | Some kinds -> (
                  try
                    Vp_storage.Format.of_kinds table
                      (Vp_storage.Format.schema_stats table)
                      layout kinds
                  with Invalid_argument msg -> fail "invalid formats: %s" msg));
           t.format_events <- List.rev (Option.value format_events ~default:[]);
           t)
      |> field "version" int (fun _ -> snapshot_version)
      |> field "table" Table.codec (fun t -> t.table)
      |> field "generation" int (fun t -> t.generation)
      |> field "ingested" int (fun t -> t.ingested)
      |> field "query_cost" float_bits (fun t -> t.query_cost)
      |> field "migration_cost" float_bits (fun t -> t.migration_cost)
      |> field "ring" (list (list float_bits)) (fun t ->
             Array.to_list (Array.map (fun (c, l) -> [ c; l ]) t.ring))
      |> field "ring_len" int (fun t -> t.ring_len)
      |> field "ring_pos" int (fun t -> t.ring_pos)
      |> field "since_decision" int (fun t -> t.since_decision)
      |> field "layout" (list (list int)) (fun t ->
             List.map Attr_set.to_list (Partitioning.groups t.layout))
      |> field "queries" (list query) stream
      |> field "events" (list event) events
      |> opt "formats" (list format_kind) (fun t ->
             Some (Vp_storage.Format.kinds t.formats))
      |> opt "format_events" (list format_event) (fun t ->
             Some (format_events t))))

let snapshot t =
  Vp_observe.Json.to_string (C.encode (snapshot_codec t.config) t)

let restore config s =
  match Vp_observe.Json.of_string ~max_size:(1 lsl 26) s with
  | Error msg -> Error (Printf.sprintf "unparseable snapshot: %s" msg)
  | Ok doc -> (
      match C.decode (snapshot_codec config) doc with
      | t -> Ok t
      | exception C.Error e ->
          Error (Printf.sprintf "corrupt snapshot: %s" (C.error_message e))
      | exception Invalid_argument msg ->
          Error (Printf.sprintf "corrupt snapshot: %s" msg))
