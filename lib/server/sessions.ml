open Vp_core
module Json = Vp_observe.Json
module C = Json.Codec
module Journal = Vp_robust.Journal
module Service = Vp_online.Service

type resident = {
  mutex : Mutex.t;
  service : Service.t;
  spec : Protocol.open_spec;
  wal : Journal.t option;  (* [None] when the registry is in-memory *)
  mutable live : bool;
      (* Cleared under [mutex] when the session is spilled or closed; a
         caller that locked a stale handle must re-fetch by name. *)
  mutable last_touch : int;  (* logical clock reading — LRU order *)
}

type state = Resident of resident | Spilled of Protocol.open_spec

type t = {
  mutex : Mutex.t;
  table : (string, state) Hashtbl.t;
  data_dir : string option;
  max_resident : int;
  fsync : Journal.fsync;
  mutable clock : int;
  mutable resident : int;
  mutable recovered : int;
}

let g_active = Vp_observe.Stats.gauge "server.active_sessions"

let g_resident = Vp_observe.Stats.gauge "server.resident_sessions"

let c_wal = Vp_observe.Stats.counter "server.wal_appends"

let c_evict = Vp_observe.Stats.counter "server.evictions"

let c_reattach = Vp_observe.Stats.counter "server.reattaches"

let c_recovered = Vp_observe.Stats.counter "server.sessions_recovered"

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let publish_locked t =
  if Vp_observe.Switch.stats_on () then begin
    Vp_observe.Stats.set_gauge g_active (Hashtbl.length t.table);
    Vp_observe.Stats.set_gauge g_resident t.resident
  end

let count t = locked t (fun () -> Hashtbl.length t.table)

let resident_count t = locked t (fun () -> t.resident)

let recovered_count t = t.recovered

let touch_locked t r =
  t.clock <- t.clock + 1;
  r.last_touch <- t.clock

(* --- the on-disk layout: <hex(session)>.{meta,snap,wal} ---

   Session names are arbitrary strings, so filenames carry them
   hex-encoded — reversible, collision-free, and safe on any
   filesystem. *)

let hex_of_name name =
  let b = Buffer.create (String.length name * 2) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) name;
  Buffer.contents b

let name_of_hex hex =
  let n = String.length hex in
  if n = 0 || n mod 2 <> 0 then None
  else
    try
      Some
        (String.init (n / 2) (fun i ->
             Char.chr (int_of_string ("0x" ^ String.sub hex (2 * i) 2))))
    with Failure _ | Invalid_argument _ -> None

let meta_path dir name = Filename.concat dir (hex_of_name name ^ ".meta")

let snap_path dir name = Filename.concat dir (hex_of_name name ^ ".snap")

let wal_path dir name = Filename.concat dir (hex_of_name name ^ ".wal")

let fsync_fd fd = try Unix.fsync fd with Unix.Unix_error _ -> ()

(* Temp + fsync + rename: a crash leaves either the old file or the new
   one, never a torn mix. *)
let write_atomic path content =
  let tmp = path ^ ".tmp" in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let oc = Unix.out_channel_of_descr fd in
  output_string oc content;
  flush oc;
  fsync_fd fd;
  close_out oc;
  Sys.rename tmp path

let read_file path =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  end

let remove_quietly path = try Sys.remove path with Sys_error _ -> ()

let read_meta path =
  Option.map
    (fun content ->
      match Json.of_string content with
      | Error msg -> Error msg
      | Ok doc -> (
          try Ok (C.decode Protocol.meta doc)
          with C.Error e -> Error (C.error_message e)))
    (read_file path)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* --- spec -> service config (shared by open and restore) --- *)

let config_of_spec (spec : Protocol.open_spec) =
  match
    let panel =
      List.map
        (fun name ->
          match Vp_algorithms.Registry.find_opt name with
          | Some a -> a
          | None ->
              failwith
                (Printf.sprintf "unknown panel algorithm %S (try: %s)" name
                   (String.concat ", " Vp_algorithms.Registry.names)))
        spec.Protocol.panel
    in
    let disk =
      Vp_cost.Disk.with_buffer_size Vp_cost.Disk.default
        (Vp_cost.Disk.mb spec.buffer_mb)
    in
    Service.default_config ~drift_ratio:spec.drift_ratio
      ~min_window:spec.min_window ~epoch:spec.epoch ~memory:spec.memory
      ~horizon:spec.horizon
      ?budget_steps:spec.budget_steps
      ~jobs:1 ~disk ~panel ()
  with
  | exception Failure msg -> Error msg
  | exception Invalid_argument msg -> Error msg
  | config -> Ok config

let same_schema a b =
  Table.name a = Table.name b
  && Table.attribute_count a = Table.attribute_count b
  && Array.for_all2
       (fun x y -> Attribute.name x = Attribute.name y)
       (Table.attributes a) (Table.attributes b)

(* --- registry creation + the crash-recovery scan --- *)

let on_disk_sessions dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | files ->
      List.sort compare
        (Array.fold_left
           (fun acc file ->
             if Filename.check_suffix file ".meta" then
               match name_of_hex (Filename.chop_suffix file ".meta") with
               | Some name -> name :: acc
               | None -> acc
             else acc)
           [] files)

let create ?data_dir ?max_resident ?(fsync = Journal.Never) () =
  (match max_resident with
  | Some n when n < 1 -> invalid_arg "Sessions.create: max_resident must be >= 1"
  | _ -> ());
  let t =
    {
      mutex = Mutex.create ();
      table = Hashtbl.create 16;
      data_dir;
      max_resident = Option.value max_resident ~default:max_int;
      fsync;
      clock = 0;
      resident = 0;
      recovered = 0;
    }
  in
  (match data_dir with
  | None -> ()
  | Some dir ->
      mkdir_p dir;
      List.iter
        (fun name ->
          match read_meta (meta_path dir name) with
          | Some (Ok spec) when spec.Protocol.session = name ->
              Hashtbl.replace t.table name (Spilled spec);
              t.recovered <- t.recovered + 1
          | Some _ | None -> ())
        (on_disk_sessions dir));
  if t.recovered > 0 && Vp_observe.Switch.stats_on () then
    Vp_observe.Stats.add c_recovered t.recovered;
  locked t (fun () -> publish_locked t);
  t

(* --- restore: snapshot + WAL-tail replay, under the registry lock --- *)

(* One write-ahead record: the query, bit-exact, and the step budget
   its ingest ran under (the deadline is wall-clock, so not replayed). *)
type wal_record = { query : Query.t; budget_steps : int option }

let wal_record =
  C.(
    seal
      (obj (fun query budget_steps -> { query; budget_steps })
      |> field "q" Service.query (fun r -> r.query)
      |> opt "budget_steps" (int_in ~min:0 ()) (fun r -> r.budget_steps)))

let replay_record svc (key, payload) =
  match int_of_string_opt key with
  | None -> failwith (Printf.sprintf "bad WAL key %S" key)
  | Some idx ->
      if idx > Service.ingested svc then begin
        if idx <> Service.ingested svc + 1 then
          failwith
            (Printf.sprintf "WAL gap: record %d after %d ingested" idx
               (Service.ingested svc));
        let r =
          match Json.of_string payload with
          | Error msg -> failwith (Printf.sprintf "bad WAL payload: %s" msg)
          | Ok doc -> C.decode wal_record doc
        in
        let run () = Service.ingest svc r.query in
        match r.budget_steps with
        | Some n ->
            Vp_robust.Budget.with_current
              (Vp_robust.Budget.create ~max_steps:n ())
              run
        | None -> run ()
      end

let restore_locked t name (spec : Protocol.open_spec) =
  match config_of_spec spec with
  | Error msg -> Error msg
  | Ok config -> (
      let dir = Option.get t.data_dir in
      let base =
        match read_file (snap_path dir name) with
        | None -> (
            (* Never spilled: the WAL alone is the whole history. *)
            match Service.create config spec.table with
            | exception Invalid_argument msg -> Error msg
            | svc -> Ok svc)
        | Some s -> (
            match Service.restore config (String.trim s) with
            | Ok _ as ok -> ok
            | Error msg ->
                Error (Printf.sprintf "corrupt snapshot for %S: %s" name msg))
      in
      match base with
      | Error msg -> Error msg
      | Ok svc -> (
          let records, _torn = Journal.recover (wal_path dir name) in
          let corrupt msg =
            Error (Printf.sprintf "corrupt WAL for %S: %s" name msg)
          in
          match List.iter (replay_record svc) records with
          | exception (Failure msg | Invalid_argument msg) -> corrupt msg
          | exception C.Error e -> corrupt (C.error_message e)
          | () ->
              let wal = Journal.open_ ~fsync:t.fsync (wal_path dir name) in
              let r =
                {
                  mutex = Mutex.create ();
                  service = svc;
                  spec;
                  wal = Some wal;
                  live = true;
                  last_touch = 0;
                }
              in
              Hashtbl.replace t.table name (Resident r);
              t.resident <- t.resident + 1;
              if Vp_observe.Switch.stats_on () then
                Vp_observe.Stats.incr c_reattach;
              publish_locked t;
              Ok r))

(* --- fetch-by-name with transparent re-attach --- *)

let get_resident_locked t name =
  match Hashtbl.find_opt t.table name with
  | None -> Error (Printf.sprintf "unknown session %S" name)
  | Some (Resident r) ->
      touch_locked t r;
      Ok r
  | Some (Spilled spec) -> (
      match restore_locked t name spec with
      | Error _ as e -> e
      | Ok r ->
          touch_locked t r;
          Ok r)

(* Lock order is registry -> session, and the session mutex is only
   ever taken with the registry lock released (or by [try_lock]), so a
   session spilled between our fetch and our lock shows up as a dead
   handle — re-fetch and the restore path brings it back. *)
let rec with_resident t name f =
  match locked t (fun () -> get_resident_locked t name) with
  | Error _ as e -> e
  | Ok r ->
      Mutex.lock r.mutex;
      if not r.live then begin
        Mutex.unlock r.mutex;
        with_resident t name f
      end
      else
        Fun.protect ~finally:(fun () -> Mutex.unlock r.mutex) (fun () -> f r)

(* --- spill + LRU eviction --- *)

(* Caller holds the registry lock AND the victim's mutex. Snapshot
   rename happens before the WAL reset: a crash between the two leaves
   a snapshot at N plus WAL records <= N, which replay skips. *)
let spill_locked t name r =
  let dir = Option.get t.data_dir in
  write_atomic (snap_path dir name) (Service.snapshot r.service ^ "\n");
  (match r.wal with
  | Some w ->
      Journal.reset w;
      Journal.close w
  | None -> ());
  r.live <- false;
  Hashtbl.replace t.table name (Spilled r.spec);
  t.resident <- t.resident - 1;
  publish_locked t

let maybe_evict t =
  if t.data_dir <> None then
    locked t (fun () ->
        if t.resident > t.max_resident then begin
          let residents =
            Hashtbl.fold
              (fun name st acc ->
                match st with
                | Resident r -> (name, r) :: acc
                | Spilled _ -> acc)
              t.table []
          in
          let by_lru =
            List.sort
              (fun (_, a) (_, b) -> compare a.last_touch b.last_touch)
              residents
          in
          (* [try_lock]: an in-use session is simply skipped for the
             next-least-recently-used — eviction never blocks an ingest
             and never inverts the lock order. *)
          List.iter
            (fun (name, (r : resident)) ->
              if t.resident > t.max_resident && Mutex.try_lock r.mutex then
                Fun.protect
                  ~finally:(fun () -> Mutex.unlock r.mutex)
                  (fun () ->
                    if r.live then begin
                      spill_locked t name r;
                      if Vp_observe.Switch.stats_on () then
                        Vp_observe.Stats.incr c_evict
                    end))
            by_lru
        end)

(* --- the request-facing operations --- *)

type opened = Protocol.opened = { created : bool; restored : bool; generation : int }

let open_session t (spec : Protocol.open_spec) =
  match config_of_spec spec with
  | Error msg -> Error msg
  | Ok config ->
      let result =
        locked t (fun () ->
            match Hashtbl.find_opt t.table spec.session with
            | Some (Resident r) ->
                let existing = Service.table r.service in
                if same_schema existing spec.table then begin
                  touch_locked t r;
                  Ok
                    {
                      created = false;
                      restored = false;
                      generation = Service.generation r.service;
                    }
                end
                else
                  Error
                    (Printf.sprintf
                       "session %S already exists with a different table (%s)"
                       spec.session (Table.name existing))
            | Some (Spilled stored) ->
                if not (same_schema stored.Protocol.table spec.table) then
                  Error
                    (Printf.sprintf
                       "session %S already exists with a different table (%s)"
                       spec.session
                       (Table.name stored.Protocol.table))
                else (
                  (* Re-attach under the session's original (persisted)
                     spec: like a live re-open, a second open does not
                     reconfigure the stream. *)
                  match restore_locked t spec.session stored with
                  | Error _ as e -> e
                  | Ok r ->
                      touch_locked t r;
                      Ok
                        {
                          created = false;
                          restored = true;
                          generation = Service.generation r.service;
                        })
            | None -> (
                match Service.create config spec.table with
                | exception Invalid_argument msg -> Error msg
                | service ->
                    let wal =
                      match t.data_dir with
                      | None -> None
                      | Some dir ->
                          write_atomic (meta_path dir spec.session)
                            (Json.to_string (C.encode Protocol.meta spec)
                            ^ "\n");
                          Some
                            (Journal.open_ ~fsync:t.fsync
                               (wal_path dir spec.session))
                    in
                    let r =
                      {
                        mutex = Mutex.create ();
                        service;
                        spec;
                        wal;
                        live = true;
                        last_touch = 0;
                      }
                    in
                    Hashtbl.replace t.table spec.session (Resident r);
                    t.resident <- t.resident + 1;
                    touch_locked t r;
                    publish_locked t;
                    Ok { created = true; restored = false; generation = 0 }))
      in
      (match result with Ok _ -> maybe_evict t | Error _ -> ());
      result

type ingested = Protocol.ingested = { ingested : int; generation : int; duplicate : bool }

let ingest t session ?seq ?deadline_ms ?budget_steps ~attributes ~weight ?name
    () =
  let result =
    with_resident t session (fun r ->
        let svc = r.service in
        let n = Service.ingested svc in
        match seq with
        | Some s when s <= n ->
            (* Already applied (e.g. a retry whose ack was lost across a
               restart): acknowledge, touch nothing. *)
            Ok
              {
                ingested = n;
                generation = Service.generation svc;
                duplicate = true;
              }
        | Some s when s > n + 1 ->
            Error
              (Printf.sprintf "seq %d is ahead of the stream (next is %d)" s
                 (n + 1))
        | _ -> (
            let table = Service.table svc in
            match Table.attr_set_of_names table attributes with
            | exception Not_found ->
                Error
                  (Printf.sprintf
                     "query references an attribute table %S does not have"
                     (Table.name table))
            | references -> (
                let name =
                  match name with
                  | Some q -> q
                  | None -> Printf.sprintf "Q%d" (n + 1)
                in
                match
                  ( Query.make ~weight ~name ~references (),
                    Protocol.budget_of_spec
                      { Protocol.deadline_ms; budget_steps } )
                with
                | exception Invalid_argument msg -> Error msg
                | q, budget ->
                    (* Write-ahead: the record hits the log before the
                       service mutates, so a crash in between replays the
                       ingest rather than losing it. Everything that can
                       refuse the ingest has run by now: a refused one
                       is never logged. *)
                    (match r.wal with
                    | None -> ()
                    | Some w ->
                        let payload =
                          Json.to_string
                            (C.encode wal_record { query = q; budget_steps })
                        in
                        Journal.record w ~key:(string_of_int (n + 1)) ~payload;
                        if Vp_observe.Switch.stats_on () then
                          Vp_observe.Stats.incr c_wal);
                    let run () = Service.ingest svc q in
                    (match budget with
                    | None -> run ()
                    | Some b -> Vp_robust.Budget.with_current b run);
                    Ok
                      {
                        ingested = Service.ingested svc;
                        generation = Service.generation svc;
                        duplicate = false;
                      })))
  in
  (match result with Ok _ -> maybe_evict t | Error _ -> ());
  result

let view t name f =
  let result = with_resident t name (fun r -> Ok (f r.service)) in
  (match result with Ok _ -> maybe_evict t | Error _ -> ());
  result

let close t name =
  with_resident t name (fun r ->
      let history = Service.history r.service in
      (match r.wal with Some w -> Journal.close w | None -> ());
      r.live <- false;
      locked t (fun () ->
          Hashtbl.remove t.table name;
          t.resident <- t.resident - 1;
          publish_locked t);
      (match t.data_dir with
      | None -> ()
      | Some dir ->
          remove_quietly (meta_path dir name);
          remove_quietly (snap_path dir name);
          remove_quietly (wal_path dir name));
      Ok history)

let names t =
  List.sort compare
    (locked t (fun () -> Hashtbl.fold (fun k _ acc -> k :: acc) t.table []))

(* --- shard handoff: detach / adopt ---

   The cluster router moves a session between shards as files: the
   losing shard [detach]es (spill + forget, files kept), the router
   renames <hex>.{meta,snap,wal} into the gaining shard's data dir, and
   the gaining shard [adopt]s (register as spilled from the meta). The
   first touch on the gainer replays snapshot + WAL tail exactly like
   crash recovery, so the decision history stays byte-identical. *)

let detach t name =
  if t.data_dir = None then
    Error "detach requires a durable registry (start the daemon with a data dir)"
  else
    let rec go () =
      let found =
        locked t (fun () ->
            match Hashtbl.find_opt t.table name with
            | None -> `Unknown
            | Some (Spilled _) ->
                (* Already on disk: just forget the registration. *)
                Hashtbl.remove t.table name;
                publish_locked t;
                `Done
            | Some (Resident r) -> `Resident r)
      in
      match found with
      | `Unknown -> Error (Printf.sprintf "unknown session %S" name)
      | `Done -> Ok ()
      | `Resident r ->
          (* Blocking lock: like drain, wait for an in-flight ingest to
             land in the WAL and the service before spilling. *)
          Mutex.lock r.mutex;
          if not r.live then begin
            Mutex.unlock r.mutex;
            go ()
          end
          else
            Fun.protect
              ~finally:(fun () -> Mutex.unlock r.mutex)
              (fun () ->
                locked t (fun () ->
                    spill_locked t name r;
                    Hashtbl.remove t.table name;
                    publish_locked t);
                Ok ())
    in
    go ()

let adopt t name =
  match t.data_dir with
  | None ->
      Error "adopt requires a durable registry (start the daemon with a data dir)"
  | Some dir ->
      locked t (fun () ->
          match Hashtbl.find_opt t.table name with
          | Some _ -> Ok false
          | None -> (
              match read_meta (meta_path dir name) with
              | None ->
                  Error
                    (Printf.sprintf "no on-disk state to adopt for session %S"
                       name)
              | Some (Error msg) ->
                  Error (Printf.sprintf "corrupt meta for %S: %s" name msg)
              | Some (Ok spec) when spec.Protocol.session <> name ->
                  Error
                    (Printf.sprintf "meta for %S names a different session (%S)"
                       name spec.Protocol.session)
              | Some (Ok spec) ->
                  Hashtbl.replace t.table name (Spilled spec);
                  publish_locked t;
                  Ok true))

let file_prefix = hex_of_name

let drain t =
  let names =
    locked t (fun () -> Hashtbl.fold (fun k _ acc -> k :: acc) t.table [])
  in
  List.iter
    (fun name ->
      if t.data_dir = None then ignore (close t name)
      else
        match locked t (fun () -> Hashtbl.find_opt t.table name) with
        | Some (Resident r) ->
            (* Blocking lock: drain waits for the in-flight ingest to
               land in the WAL and the service before spilling. *)
            Mutex.lock r.mutex;
            Fun.protect
              ~finally:(fun () -> Mutex.unlock r.mutex)
              (fun () ->
                if r.live then locked t (fun () -> spill_locked t name r))
        | Some (Spilled _) | None -> ())
    names
