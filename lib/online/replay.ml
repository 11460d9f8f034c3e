open Vp_core

type outcome = {
  trace : string;
  queries : int;
  reopts : int;
  adopted : int;
  rejected : int;
  final_generation : int;
  online_cost : float;
  online_query_cost : float;
  online_migration_cost : float;
  row_cost : float;
  column_cost : float;
  oneshot_cost : float;
  oneshot_algorithm : string;
  history : string;
  events : Service.event list;
}

let adoption_rate o =
  if o.reopts = 0 then 0.0 else float_of_int o.adopted /. float_of_int o.reopts

(* Cost of running the whole stream under one fixed layout. *)
let static_cost disk table layout queries =
  Array.fold_left
    (fun acc q ->
      acc +. (Query.weight q *. Vp_cost.Io_model.query_cost disk table layout q))
    0.0 queries

let run ~(config : Service.config) ?oneshot ?warmup w =
  let table = Workload.table w in
  let queries = Workload.queries w in
  if Array.length queries = 0 then invalid_arg "Replay.run: empty workload";
  let disk = config.Service.disk in
  let n = Table.attribute_count table in
  let oneshot =
    match oneshot with
    | Some a -> a
    | None -> List.hd config.Service.panel
  in
  let warmup =
    match warmup with
    | Some k -> max 1 (min k (Array.length queries))
    | None -> max 1 (min 32 (Array.length queries))
  in
  (* The static contender: optimize once on the warmup prefix — all a
     batch system has seen at layout time — and never look again. *)
  let prefix = Workload.prefix w warmup in
  let oneshot_layout =
    (Partitioner.exec oneshot
       (Vp_cost.Io_model.request ~label:"online:oneshot" disk prefix))
      .Partitioner.Response.partitioning
  in
  let service = Service.create config table in
  Array.iter (fun q -> Service.ingest service q) queries;
  let row = Partitioning.row n and column = Partitioning.column n in
  {
    trace = Table.name table;
    queries = Array.length queries;
    reopts = Service.reopts service;
    adopted = Service.adoptions service;
    rejected = Service.reopts service - Service.adoptions service;
    final_generation = Service.generation service;
    online_cost = Service.cumulative_cost service;
    online_query_cost = Service.cumulative_query_cost service;
    online_migration_cost = Service.cumulative_migration_cost service;
    row_cost = static_cost disk table row queries;
    column_cost =
      static_cost disk table column queries
      +. Vp_cost.Io_model.creation_time disk table column;
    oneshot_cost =
      static_cost disk table oneshot_layout queries
      +. Vp_cost.Io_model.creation_time disk table oneshot_layout;
    oneshot_algorithm = oneshot.Partitioner.name;
    history = Service.history service;
    events = Service.events service;
  }

let improvement ~over cost =
  if over <= 0.0 then 0.0 else 100.0 *. (over -. cost) /. over

let summary o =
  let b = Buffer.create 512 in
  Printf.bprintf b "stream %s: %d queries, %d re-opt(s), %d adopted, %d \
                    rejected (adoption rate %.0f%%), final generation %d\n"
    o.trace o.queries o.reopts o.adopted o.rejected
    (100.0 *. adoption_rate o)
    o.final_generation;
  Printf.bprintf b "  online     : %12.4f s  (queries %.4f + migrations %.4f)\n"
    o.online_cost o.online_query_cost o.online_migration_cost;
  Printf.bprintf b "  static Row : %12.4f s  (online %+.1f%%)\n" o.row_cost
    (improvement ~over:o.row_cost o.online_cost);
  Printf.bprintf b "  static Col : %12.4f s  (online %+.1f%%)\n" o.column_cost
    (improvement ~over:o.column_cost o.online_cost);
  Printf.bprintf b "  one-shot %s: %12.4f s  (online %+.1f%%)\n"
    o.oneshot_algorithm o.oneshot_cost
    (improvement ~over:o.oneshot_cost o.online_cost);
  Buffer.contents b
