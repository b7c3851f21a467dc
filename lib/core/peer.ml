module Lazy_tbl = Mortar_util.Lazy_tbl
module Fmap = Mortar_util.Int_float_map
module Rng = Mortar_util.Rng
module Ewma = Mortar_util.Ewma
module Obs = Mortar_obs.Obs

(* Hop-count histograms use power-of-two edges: tree paths are shallow
   and the default decade buckets would lump everything into one. *)
let hop_buckets = [| 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0 |]

type timer = Mortar_sim.Engine.handle

let no_timer = Mortar_sim.Engine.no_handle

type runtime = {
  send : src:int -> dst:int -> size:int -> kind:string -> Msg.payload -> unit;
  local_time : int -> float;
  latency : int -> int -> float;
  set_timer : int -> after:float -> (int -> unit) -> timer;
  cancel_timer : timer -> unit;
  compile : Op.spec -> Op.impl;
}

type config = {
  hb_period : float;
  level_wait : float; (* eviction-time budget per level of headroom *)
  quiet_guard : float; (* deadline extension while merges keep arriving *)
  ctl_retries : int; (* retransmit budget per reliable control message *)
  self_heal : bool; (* failure-driven tree repair + crash-rejoin warm-up *)
  warmup_buffer : int; (* summaries buffered for an uninstalled query *)
}

let default_config =
  {
    hb_period = 2.0;
    level_wait = 1.0;
    quiet_guard = 0.6;
    (* Off by default: the paper's deployment is fire-and-forget end to
       end, and the figure reproductions must keep that message pattern.
       Robustness-focused runs opt in (see DESIGN.md "Fault model"). *)
    ctl_retries = 0;
    (* Off by default for the same reason: repair mutates views and ships
       extra install metadata, which would shift every seeded figure. The
       soak/robustness runs opt in. *)
    self_heal = false;
    warmup_buffer = 0;
  }

(* Protocol constants (§7): no run varies them. *)

(* A neighbor is dead after this many heartbeat periods of silence. *)
let hb_timeout_factor = 3.0

(* Digest on every k-th heartbeat; 3 in §7.1. *)
let reconcile_every = 3

(* Floor on TS eviction timeouts, seconds. *)
let min_timeout = 0.25

(* Added to [netDist - age] in the eviction deadline, seconds. *)
let timeout_slack = 0.4

(* Parallel install components; 16 in §7.1. *)
let install_chunks = 16

(* Stall detection period for tuple windows, seconds. *)
let boundary_period = 1.0

(* Evicted-slot memory, in slots. *)
let emitted_horizon = 64

(* Floor on the control retransmission timeout, seconds; the effective
   base is [max ctl_timeout (4 * latency_to dst)]. *)
let ctl_timeout = 0.5

(* RTO multiplier per attempt (exponential backoff). *)
let ctl_backoff = 2.0

(* Uniform fraction added to each RTO so retry bursts desynchronise
   across peers. *)
let ctl_jitter = 0.25

type result = {
  query : string;
  slot : int;
  value : Value.t;
  count : int;
  completeness : float;
  age : float;
  hops : int;
  hops_max : int;
  prov : (int * int) list;
}

type remote_result = {
  r_query : string; (* physical query name *)
  r_slot : int;
  r_value : Value.t;
  r_count : int;
  r_age : float;
}

type counter =
  | Results | Results_forwarded | Results_fwd_received | Received | Late | Dropped
  | Ts_inserts | Type_faults | Reconciliations | Ctl_acked | Ctl_retransmits | Ctl_abandoned
  | Installs | Repairs | Reparent_edges | Adoptions | Fast_resyncs | Warmup_buffered
  | Warmup_replayed | Warmup_drops | Partners_swept | Crashes

let counters =
  [| Results; Results_forwarded; Results_fwd_received; Received; Late; Dropped; Ts_inserts;
     Type_faults; Reconciliations; Ctl_acked; Ctl_retransmits; Ctl_abandoned; Installs;
     Repairs; Reparent_edges; Adoptions; Fast_resyncs; Warmup_buffered; Warmup_replayed;
     Warmup_drops; Partners_swept; Crashes |]

(* The counter's index in a peer's [counts]: its position in [counters]. *)
let slot = function
  | Results -> 0 | Results_forwarded -> 1 | Results_fwd_received -> 2 | Received -> 3
  | Late -> 4 | Dropped -> 5 | Ts_inserts -> 6 | Type_faults -> 7 | Reconciliations -> 8
  | Ctl_acked -> 9 | Ctl_retransmits -> 10 | Ctl_abandoned -> 11 | Installs -> 12
  | Repairs -> 13 | Reparent_edges -> 14 | Adoptions -> 15 | Fast_resyncs -> 16
  | Warmup_buffered -> 17 | Warmup_replayed -> 18 | Warmup_drops -> 19 | Partners_swept -> 20
  | Crashes -> 21

let () = Array.iteri (fun i c -> assert (slot c = i)) counters

let counter_name = function
  | Results -> "peer.results"
  | Results_forwarded -> "peer.results_forwarded"
  | Results_fwd_received -> "peer.results_fwd_received"
  | Received -> "peer.received"
  | Late -> "peer.late"
  | Dropped -> "peer.dropped"
  | Ts_inserts -> "peer.ts_inserts"
  | Type_faults -> "peer.type_faults"
  | Reconciliations -> "peer.reconciliations"
  | Ctl_acked -> "peer.ctl_acked"
  | Ctl_retransmits -> "peer.ctl_retransmits"
  | Ctl_abandoned -> "peer.ctl_abandoned"
  | Installs -> "peer.installs"
  | Repairs -> "peer.repairs"
  | Reparent_edges -> "peer.reparent_edges"
  | Adoptions -> "peer.adoptions"
  | Fast_resyncs -> "peer.fast_resyncs"
  | Warmup_buffered -> "peer.warmup_buffered"
  | Warmup_replayed -> "peer.warmup_replayed"
  | Warmup_drops -> "peer.warmup_drops"
  | Partners_swept -> "peer.partners_swept"
  | Crashes -> "peer.crashes"

type stats = {
  tuples_late : int;
  tuples_dropped : int;
  reconciliations : int;
  ctl_retransmits : int;
  ctl_abandoned : int;
  repairs : int;
  warmup_dropped : int;
}

(* An instance's float state. A record of floats only is stored flat, so
   a write stores the word in place instead of allocating a box (DESIGN.md
   "Host memory layout", rule 3). *)
type floats = {
  mutable netdist_hi : float;
      (* Conservative companion to [netdist] for eviction horizons: jumps
         to any larger observed age immediately, decays 30 % per fold,
         never below the EWMA. The symmetric EWMA alone converges at 10 %
         per slide, and under-waiting while it converges is irreversible
         (the window is reported and later data suppressed), while
         over-waiting only delays a result. *)
  t_ref_base : float; (* basis time = local_time - t_ref_base *)
  mutable emitted_te : float; (* eviction watermark (tuple windows) *)
  mutable tw_last_te : float;
  mutable age_max_period : float; (* max received age since the last fold *)
  mutable orphaned_since : float;
      (* local time the failure detector first saw every union parent dead,
         [nan] while not orphaned; cleared once a repaired parent is
         confirmed live (self-healing) *)
}

type instance = {
  meta : Query.meta;
  view : Query.node_view;
  op : Op.impl; (* shared by every instance of the spec on this runtime *)
  ts : Ts_list.t;
  netdist : Ewma.t;
  fl : floats;
  mutable stripe : int;
  emitted : Fmap.t; (* evicted local slot -> eviction basis time *)
  (* Raw source tuples, oldest first, as columns (no boxed basis): the
     current windows' for a time window, the last [range] for a tuple
     window. *)
  mutable raw_basis : float array;
  mutable raw_payload : Value.t array;
  mutable raw_prov : (int * int) list array;
  mutable tw_pending : int; (* raws since the last tuple-window emission *)
  mutable raw_seen : bool; (* since the last boundary check *)
  mutable next_slot : int; (* next slide boundary to close (time windows) *)
  mutable eviction_timer : timer;
  mutable tick_timer : timer; (* the slide (time) or boundary check (tuples) *)
  (* The two timer handlers, made once at install so arming a timer
     allocates nothing. *)
  mutable on_evict : int -> unit;
  mutable on_tick : int -> unit;
}

(* One unacked reliable control message (§6-style install/remove/view
   traffic): retransmitted with exponential backoff until acked or the
   budget runs out, at which point the peer degrades gracefully and lets
   reconciliation catch the straggler up. *)
type pending_ctl = {
  ctl_dst : int;
  ctl_payload : Msg.payload;
  ctl_token : int;
  ctl_born : float; (* local time of the first attempt *)
  mutable ctl_attempts : int;
  mutable ctl_timer : timer;
}

(* A data summary that arrived for a query we have not (re)installed yet:
   held verbatim until the install lands, then replayed through the normal
   data path. [wu_at] re-ages the summary by the buffering delay at replay
   so syncless relabeling still files it into its original window — replay
   must never shift a contribution into a different slot (that would be
   the over-counting failure repair exists to prevent). *)
type warmup_entry = {
  wu_src : int;
  wu_seqno : int;
  wu_tree : int;
  wu_summary : Summary.t;
  wu_visited : (int * int) list;
  wu_path : int list;
  wu_ttl : int;
  wu_at : float; (* local arrival time *)
}

(* The tables that stay empty on most hosts for a whole run: one record,
   made on the first write to any of them, each table in it allocated on
   its own first write (DESIGN.md "Host memory layout"). No iteration
   order over them escapes unsorted (lint D3). *)
type cold = {
  removed : (string, int) Lazy_tbl.t; (* name -> latest removal seqno *)
  not_mine : (string, int) Lazy_tbl.t; (* queries we learned do not include us *)
  plans : (string, Query.meta * Mortar_overlay.Treeset.t option) Lazy_tbl.t;
      (* injector only; [None] is a removal tombstone — it keeps the
         seqno lineage for the name without retaining the tree set, so
         removing the last query sharing a tree actually frees it *)
  pending_views : (string, float) Lazy_tbl.t; (* name -> last request local time *)
  warmup : (string, warmup_entry Queue.t) Lazy_tbl.t; (* name -> buffered data *)
  fast_resync : (string, float) Lazy_tbl.t; (* name -> last warm-up resync time *)
  ctl_pending : (int, pending_ctl) Lazy_tbl.t; (* token -> unacked ctl msg *)
  seen_ctl : (int * int, unit) Lazy_tbl.t; (* (src, token) already processed *)
  seen_ctl_order : (int * int) Queue.t; (* FIFO pruning for seen_ctl *)
  result_fwds : (string, int list) Lazy_tbl.t;
      (* shared-tree fan-out: query -> subscriber hosts the root forwards
         finished results to (multi-query planner; root only) *)
}

(* Everything a process restart loses: {!crash} cancels its timers and
   replaces it whole, so a table added here is reset by construction. *)
type volatile = {
  mutable instances : instance array;
      (* sorted by name: lookups binary-search it, and [inject] and the
         repair sweep walk it in that order *)
  partners : Partner_set.t;
  mutable cold : cold option;
  mutable hb_counter : int;
  mutable hb_timer : timer;
  mutable digest_cache : string; (* [""] when stale; a digest is 32 hex digits *)
}

let volatile () =
  {
    instances = [||];
    partners = Partner_set.create ();
    cold = None;
    hb_counter = 0;
    hb_timer = no_timer;
    digest_cache = "";
  }

(* What survives a crash: the runtime and config, the handlers, the
   control plane's jitter stream, and the counts. *)
type t = {
  self : int;
  rt : runtime; (* shared by the hosts of one shard *)
  rng : Rng.t;
  cfg : config;
  mutable v : volatile;
  ctl_rng : Rng.t;
      (* Dedicated stream for retry jitter: control-plane draws must not
         perturb the main rng the data path (striping, routing) uses. *)
  mutable next_token : int;
      (* Tokens count up and survive {!crash}, so they never collide
         across process restarts (a stale ack must not cancel a fresh
         retransmission, and the receiver's dup table must not suppress a
         fresh message). *)
  mutable result_handlers : (result -> unit) list;
  mutable remote_handlers : (remote_result -> unit) list;
  counts : int array; (* one slot per {!counter} *)
  heartbeat : int -> unit; (* the heartbeat timer's handler, made once *)
}

let add t c n = t.counts.(slot c) <- t.counts.(slot c) + n

let bump t c = add t c 1

let count t c = t.counts.(slot c)

let now_local t = t.rt.local_time t.self

let latency_to t dst = t.rt.latency t.self dst

let set_timer t ~after f = t.rt.set_timer t.self ~after f

let basis inst ~local = local -. inst.fl.t_ref_base

(* The cold tables: reads of a table that was never written see an
   empty one and allocate nothing. *)
let cold t =
  match t.v.cold with
  | Some c -> c
  | None ->
    let c =
      {
        removed = Lazy_tbl.create 8;
        not_mine = Lazy_tbl.create 8;
        plans = Lazy_tbl.create 4;
        pending_views = Lazy_tbl.create 8;
        warmup = Lazy_tbl.create 8;
        fast_resync = Lazy_tbl.create 8;
        ctl_pending = Lazy_tbl.create 16;
        seen_ctl = Lazy_tbl.create 64;
        seen_ctl_order = Queue.create ();
        result_fwds = Lazy_tbl.create 4;
      }
    in
    t.v.cold <- Some c;
    c

let find_cold sel t k = match t.v.cold with None -> None | Some c -> Lazy_tbl.find_opt (sel c) k

let mem_cold sel t k = match t.v.cold with None -> false | Some c -> Lazy_tbl.mem (sel c) k

let remove_cold sel t k = match t.v.cold with None -> () | Some c -> Lazy_tbl.remove (sel c) k

let replace_cold sel t k v = Lazy_tbl.replace (sel (cold t)) k v

(* Hash order: sort anything that escapes (lint D3). *)
let fold_cold sel t f acc =
  match t.v.cold with None -> acc | Some c -> Lazy_tbl.fold f (sel c) acc

let tbl_removed c = c.removed

let tbl_not_mine c = c.not_mine

let tbl_plans c = c.plans

let tbl_pending_views c = c.pending_views

let tbl_warmup c = c.warmup

let tbl_fast_resync c = c.fast_resync

let tbl_ctl_pending c = c.ctl_pending

let tbl_result_fwds c = c.result_fwds

(* [instances] is sorted by name: the index of [name], or [-(i + 1)]
   for the insertion point [i]. *)
let search_inst insts name =
  let rec go lo hi =
    if lo > hi then -(lo + 1)
    else
      let mid = (lo + hi) lsr 1 in
      let c = String.compare insts.(mid).meta.Query.name name in
      if c = 0 then mid else if c < 0 then go (mid + 1) hi else go lo (mid - 1)
  in
  go 0 (Array.length insts - 1)

let find_inst t name =
  let insts = t.v.instances in
  let i = search_inst insts name in
  if i >= 0 then Some insts.(i) else None

(* Insert [inst]; no instance of its name is installed. *)
let insert_inst t inst =
  let insts = t.v.instances in
  let i = -(search_inst insts inst.meta.Query.name + 1) in
  assert (i >= 0);
  t.v.instances <-
    Array.init (Array.length insts + 1) (fun j ->
        if j < i then insts.(j) else if j = i then inst else insts.(j - 1))

let drop_inst t name =
  let insts = t.v.instances in
  let i = search_inst insts name in
  if i >= 0 then begin
    let n = Array.length insts in
    t.v.instances <- Array.init (n - 1) (fun j -> if j < i then insts.(j) else insts.(j + 1))
  end

(* ------------------------------------------------------------------ *)
(* Digest over query-management state (§6.1).                          *)

let installed_triples t =
  Array.fold_right
    (fun inst acc -> (inst.meta.Query.name, inst.meta.Query.seqno, inst.meta.Query.root) :: acc)
    t.v.instances []

let removed_pairs t =
  fold_cold tbl_removed t (fun name s acc -> (name, s) :: acc) [] |> List.sort compare

let digest t =
  if String.length t.v.digest_cache > 0 then t.v.digest_cache
  else begin
    let buf = Buffer.create 128 in
    List.iter
      (fun (n, s, _) -> Buffer.add_string buf (Printf.sprintf "i:%s#%d;" n s))
      (installed_triples t);
    List.iter (fun (n, s) -> Buffer.add_string buf (Printf.sprintf "r:%s#%d;" n s)) (removed_pairs t);
    let d = Digest.to_hex (Digest.string (Buffer.contents buf)) in
    t.v.digest_cache <- d;
    d
  end

(* Every install/remove path that mutates [instances] or [removed] runs
   through here. *)
let invalidate_digest t = t.v.digest_cache <- ""

(* Whether table [sel] records [name] at [seqno] or later (a removal, or
   a query known not to include us). *)
let covers t sel name seqno =
  match find_cold sel t name with Some s -> s >= seqno | None -> false

(* Rate-limited requests: stamps [key] in table [sel] and returns true
   unless it was stamped less than [gap] ago. *)
let gate t sel key ~now ~gap =
  match find_cold sel t key with
  | Some at when now -. at < gap -> false
  | _ ->
    replace_cold sel t key now;
    true

(* ------------------------------------------------------------------ *)
(* Heartbeat partner bookkeeping.                                      *)

let retain_partner t node = Partner_set.retain t.v.partners node ~now:(now_local t)

let release_partner t node = Partner_set.release t.v.partners node

(* Liveness belief from heartbeats (true for unknown nodes). *)
let alive_neighbor t node =
  Partner_set.alive t.v.partners node ~now:(now_local t)
    ~timeout:(hb_timeout_factor *. t.cfg.hb_period)

let confirmed_alive t node =
  Partner_set.confirmed_alive t.v.partners node ~now:(now_local t)
    ~timeout:(hb_timeout_factor *. t.cfg.hb_period)

(* ------------------------------------------------------------------ *)
(* Sending helpers.                                                    *)

let send_msg t ~dst payload =
  t.rt.send ~src:t.self ~dst ~size:(Msg.wire_size payload) ~kind:(Msg.kind payload) payload

(* ------------------------------------------------------------------ *)
(* Reliable control plane: Install/Remove/View traffic is acked per
   destination and retransmitted with exponential backoff plus jitter.
   Data tuples stay fire-and-forget, as in the paper. *)

(* Install and View_reply carry an [age] (time since query creation) that
   the receiver turns into its syncless [t_ref]; a retransmission must
   re-age the payload or the receiver's windows end up misaligned by the
   RTO delay. *)
let aged_payload t p =
  let elapsed = now_local t -. p.ctl_born in
  if elapsed <= 0.0 then p.ctl_payload
  else
    match p.ctl_payload with
    | Msg.Install { meta; members; edges; age } ->
      Msg.Install { meta; members; edges; age = age +. elapsed }
    | Msg.View_reply { meta; view; age } -> Msg.View_reply { meta; view; age = age +. elapsed }
    | ( Msg.Data _ | Msg.Heartbeat _ | Msg.Reconcile_request _ | Msg.Reconcile_reply _
      | Msg.Remove _ | Msg.View_request _ | Msg.Adopt _ | Msg.Reliable _ | Msg.Ack _
      | Msg.Result_fwd _ ) as other ->
      (* Result_fwd carries an age too, but is always fire-and-forget. *)
      other

let rec ctl_attempt t p =
  p.ctl_attempts <- p.ctl_attempts + 1;
  if p.ctl_attempts > 1 then bump t Ctl_retransmits;
  send_msg t ~dst:p.ctl_dst (Msg.Reliable { token = p.ctl_token; inner = aged_payload t p });
  (* RTO: a floor covering several round trips to this destination, then
     doubled per attempt, with uniform jitter so retry storms
     desynchronise. *)
  let base = max ctl_timeout (4.0 *. latency_to t p.ctl_dst) in
  let rto = base *. (ctl_backoff ** float_of_int (p.ctl_attempts - 1)) in
  let rto = rto *. (1.0 +. Rng.float t.ctl_rng ctl_jitter) in
  p.ctl_timer <- set_timer t ~after:rto (fun _ -> ctl_expire t p)

and ctl_expire t p =
  p.ctl_timer <- no_timer;
  if mem_cold tbl_ctl_pending t p.ctl_token then begin
    if p.ctl_attempts > t.cfg.ctl_retries then begin
      (* Budget exhausted: give up and let reconciliation (§6.1) repair
         whatever state the destination missed. *)
      remove_cold tbl_ctl_pending t p.ctl_token;
      bump t Ctl_abandoned
    end
    else ctl_attempt t p
  end

let send_ctl t ~dst payload =
  if dst = t.self || t.cfg.ctl_retries <= 0 then send_msg t ~dst payload
  else begin
    let token = t.next_token in
    t.next_token <- t.next_token + 1;
    let p =
      { ctl_dst = dst; ctl_payload = payload; ctl_token = token; ctl_born = now_local t;
        ctl_attempts = 0; ctl_timer = no_timer }
    in
    replace_cold tbl_ctl_pending t token p;
    ctl_attempt t p
  end

let ctl_ack t ~src ~token =
  match find_cold tbl_ctl_pending t token with
  | Some p when p.ctl_dst = src ->
    t.rt.cancel_timer p.ctl_timer;
    remove_cold tbl_ctl_pending t token;
    bump t Ctl_acked
  | _ -> () (* late, duplicate, or forged ack *)

let ctl_seen_cap = 1024

(* Retransmissions of an already-processed envelope are acked but not
   re-processed (handlers are idempotent, but e.g. a duplicate Install
   would re-forward its whole chunk). *)
let ctl_duplicate t ~src ~token =
  let k = (src, token) and c = cold t in
  if Lazy_tbl.mem c.seen_ctl k then true
  else begin
    Lazy_tbl.replace c.seen_ctl k ();
    Queue.push k c.seen_ctl_order;
    while Lazy_tbl.length c.seen_ctl > ctl_seen_cap do
      Lazy_tbl.remove c.seen_ctl (Queue.pop c.seen_ctl_order)
    done;
    false
  end

let slide_of (meta : Query.meta) =
  match meta.window with
  | Window.Time { slide; _ } -> slide
  | Window.Tuples _ -> invalid_arg "slide_of: tuple window"

(* Raw columns: append one, or keep those whose index satisfies [keep]
   (in order). Exactly sized: most instances hold one or two raws. *)
let push_raw inst b payload prov =
  let n = Array.length inst.raw_basis in
  let grow a x =
    let a' = Array.make (n + 1) x in
    Array.blit a 0 a' 0 n;
    a'
  in
  inst.raw_basis <- grow inst.raw_basis b;
  inst.raw_payload <- grow inst.raw_payload payload;
  inst.raw_prov <- grow inst.raw_prov prov

let keep_raws inst keep =
  let n = Array.length inst.raw_basis in
  let kept = ref 0 in
  for i = 0 to n - 1 do
    if keep i then incr kept
  done;
  if !kept = 0 then begin
    inst.raw_basis <- [||];
    inst.raw_payload <- [||];
    inst.raw_prov <- [||]
  end
  else if !kept < n then begin
    let rb = Array.make !kept 0.0 in
    let rv = Array.make !kept Value.Null and rp = Array.make !kept [] in
    let j = ref 0 in
    for i = 0 to n - 1 do
      if keep i then begin
        rb.(!j) <- inst.raw_basis.(i);
        rv.(!j) <- inst.raw_payload.(i);
        rp.(!j) <- inst.raw_prov.(i);
        incr j
      end
    done;
    inst.raw_basis <- rb;
    inst.raw_payload <- rv;
    inst.raw_prov <- rp
  end

(* ------------------------------------------------------------------ *)
(* The mutually recursive heart: source emission, TS eviction, routing,
   result reporting, and raw injection (results feed composed queries). *)

(* Re-arm after every insert: [Ts_list.next_deadline] is O(1) (cached
   minimum), so this is just a timer cancel + schedule. Skipping the
   re-arm when the deadline is unchanged would keep the older event's
   sequence number and reorder simultaneous events — measurably shifting
   seeded experiment tables — so the timer is always refreshed. *)
let rec arm_eviction t inst =
  t.rt.cancel_timer inst.eviction_timer;
  let deadline = Ts_list.next_deadline inst.ts in
  if Float.equal deadline infinity then inst.eviction_timer <- no_timer
  else begin
    let b = basis inst ~local:(now_local t) in
    let delay = max 0.0 (deadline -. b) in
    inst.eviction_timer <- set_timer t ~after:delay inst.on_evict
  end

and evict t inst =
  inst.eviction_timer <- no_timer;
  let b = basis inst ~local:(now_local t) in
  let due = Ts_list.pop_due inst.ts ~now:b in
  List.iter (fun s -> dispatch_evicted t inst s) due;
  arm_eviction t inst

and mark_emitted t inst (s : Summary.t) =
  (match inst.meta.Query.window with
  | Window.Time _ ->
    let slide = slide_of inst.meta in
    let slot = Index.slot ~slide (s.index.Index.tb +. (slide /. 2.0)) in
    let b = basis inst ~local:(now_local t) in
    Fmap.replace inst.emitted slot b;
    (* Prune by age, not slot distance: under clock offset (timestamp
       mode) slot labels from different nodes are far apart, and a
       distance-based watermark would discard every slower cluster. *)
    let horizon = float_of_int emitted_horizon *. slide in
    Fmap.remove_stale inst.emitted ~now:b ~horizon
  | Window.Tuples _ -> ());
  if s.index.Index.te > inst.fl.emitted_te then inst.fl.emitted_te <- s.index.Index.te

and dispatch_evicted t inst (s : Summary.t) =
  mark_emitted t inst s;
  if t.self = inst.meta.Query.root then report_result t inst s
  else begin
    (* The evicted summary is a freshly created tuple at this node: stripe
       it across the tree set and route from there. Round-robin is the
       default; content-sensitive queries derive the tree from the window
       index so all sources agree (§4). *)
    let counter =
      match inst.meta.Query.striping with
      | Query.Round_robin ->
        inst.stripe <- inst.stripe + 1;
        inst.stripe
      | Query.By_index ->
        let slide =
          match inst.meta.Query.window with
          | Window.Time { slide; _ } -> slide
          | Window.Tuples _ -> 1.0
        in
        (* abs: timestamp-mode slots can be negative under clock offset. *)
        abs (Index.slot ~slide (s.index.Index.tb +. (slide /. 2.0)))
    in
    match Routing.stripe_tree inst.view ~counter with
    | None -> report_result t inst s (* degenerate single-node query *)
    | Some tree ->
      let visited = Routing.initial_visited inst.view in
      route_and_send t inst s ~visited ~arrival_tree:tree ~ttl_down:0 ()
  end

and route_and_send t inst (s : Summary.t) ?(path = []) ~visited ~arrival_tree ~ttl_down () =
  let path =
    let with_self = t.self :: List.filter (fun n -> n <> t.self) path in
    List.filteri (fun i _ -> i < Routing.path_horizon) with_self
  in
  match
    Routing.route ~avoid:path ~view:inst.view ~alive:(alive_neighbor t) ~rng:t.rng
      ~visited ~arrival_tree ~ttl_down ()
  with
  | Routing.Deliver_root -> report_result t inst s
  | Routing.Drop ->
    bump t Dropped;
    if !Obs.enabled then begin
      (* dst = -1: the summary died here, no next hop existed. *)
      Obs.trace ~t:(now_local t)
        (Obs.Tuple_drop { src = t.self; dst = -1; kind = "data"; reason = "routing" })
    end
  | Routing.Forward { dst; tree; descended } ->
    let ttl_down = if descended then ttl_down + 1 else ttl_down in
    send_msg t ~dst
      (Msg.Data
         {
           query = inst.meta.Query.name;
           seqno = inst.meta.Query.seqno;
           tree;
           summary = s;
           visited;
           path;
           ttl_down;
           digest = digest t;
         })

and report_result t inst (s : Summary.t) =
  let meta = inst.meta in
  let slide_slot =
    match meta.Query.window with
    | Window.Time { slide; _ } -> Index.slot ~slide (s.index.Index.tb +. (slide /. 2.0))
    | Window.Tuples _ -> -1
  in
  let value = inst.op.Op.finalize s.value in
  let r =
    {
      query = meta.Query.name;
      slot = slide_slot;
      value;
      count = s.count;
      completeness = float_of_int s.count /. float_of_int (max 1 meta.Query.total_nodes);
      age = s.age;
      hops = s.hops;
      hops_max = s.hops_max;
      prov = s.prov;
    }
  in
  bump t Results;
  if !Obs.enabled then begin
    let name = meta.Query.name in
    Obs.incr ~scope:(Obs.Query name) "results";
    Obs.observe ~scope:(Obs.Query name) "result_age" s.age;
    Obs.observe ~scope:(Obs.Query name) ~buckets:hop_buckets "result_hops"
      (float_of_int s.hops);
    Obs.trace ~t:(now_local t)
      (Obs.Result
         {
           query = name;
           slot = slide_slot;
           count = s.count;
           (* Structured results (topk lists, trilat records) have no
              scalar projection; the trace renders them as null. *)
           value =
             (match value with
             | Value.Null -> 0.0
             | v -> ( match Value.to_float_opt v with Some f -> f | None -> nan));
           hops = s.hops;
           hops_max = s.hops_max;
           age = s.age;
           prov = s.prov;
         })
  end;
  List.iter (fun f -> f r) t.result_handlers;
  (* Shared-tree fan-out: when this root serves subscribers besides
     itself (multi-query planner), forward the finished result to each.
     Boundary-only results carry no data and are not forwarded. *)
  (if not s.boundary then
     match find_cold tbl_result_fwds t meta.Query.name with
     | None -> ()
     | Some dsts ->
       List.iter
         (fun dst ->
           bump t Results_forwarded;
           send_msg t ~dst
             (Msg.Result_fwd
                { query = meta.Query.name; slot = slide_slot; value; count = s.count; age = s.age }))
         dsts);
  (* Results are the query's output stream: feed composed queries that
     subscribe to it locally (§2.2). Skip boundary-only results. *)
  if not s.boundary then inject t ~stream:meta.Query.name value

(* Insert a summary into the instance's TS list with the dynamic timeout
   of §4.3 and re-arm the eviction timer.

   §4.3 phrases the wait per arriving tuple — netDist minus the tuple's
   age, i.e. "how much longer can this tuple's generation cohort take to
   drain". For a time window that anchor is wrong when the first arrival
   was generated before the window closed: a fast-offset source emits
   mid-window (in the receiver's basis), the countdown starts from that
   early instant, and the window is evicted — all later data for it then
   suppressed as already-emitted — before the slower constituents could
   possibly have arrived. One such source among 100k hosts silently
   blanks an entire window at the root (caught by the scale bench, which
   scored 83.3% at 100k until this fix). The window's cohort is generated
   up to [te], so the drain horizon is [te + netDist + slack]; when the
   first arrival is emitted exactly at window close — the common case —
   this equals the per-tuple formula.

   The horizon applies at the root only. The per-tuple form keeps interior
   deadlines naturally staggered — a deep operator's countdown starts from
   its (early) first arrival, so subtrees drain strictly before their
   parents. Anchoring every level at the same [te] collapses that stagger:
   interior nodes hold exactly as long as the root, the root evicts while
   its subtrees are still holding, and under rolling failures the
   post-reconnect completeness plateaus drop by up to 13 points (fig14).
   The root has no parent racing it, so waiting longer there costs only
   latency. Timestamp mode keeps the per-tuple form everywhere: its [te]
   comes from the sender's clock (offset pollutes it, §5) and its age is
   inferred from the window midpoint, so a [te]-anchored horizon feeds the
   held-aggregate-looks-older ratchet even with synced clocks. Tuple
   windows have no fixed close instant in the receiver's basis. *)
and ts_insert t inst (s : Summary.t) =
  let b = basis inst ~local:(now_local t) in
  let nd = Ewma.value_or inst.netdist 0.0 in
  let deadline =
    match (inst.meta.Query.window, inst.meta.Query.mode) with
    | Window.Time _, Query.Syncless when t.self = inst.meta.Query.root ->
      max
        (b +. min_timeout)
        (s.Summary.index.Index.te +. max nd inst.fl.netdist_hi +. timeout_slack)
    | _ -> b +. max min_timeout (nd -. s.age +. timeout_slack)
  in
  Ts_list.insert inst.ts ~now:b ~deadline s;
  bump t Ts_inserts;
  if !Obs.enabled then
    Obs.trace ~t:(now_local t) (Obs.Ts_merge { node = t.self; query = inst.meta.Query.name });
  arm_eviction t inst

(* A summary created locally (source slide or tuple-window emission). *)
and emit_local t inst (s : Summary.t) =
  if inst.meta.Query.aggregate || t.self = inst.meta.Query.root then ts_insert t inst s
  else dispatch_evicted t inst s


and fold_netdist inst =
  let fl = inst.fl in
  if fl.age_max_period > neg_infinity then begin
    Ewma.update inst.netdist fl.age_max_period;
    fl.netdist_hi <- max (Ewma.value_or inst.netdist 0.0) (0.7 *. fl.netdist_hi);
    fl.age_max_period <- neg_infinity
  end

and close_slide t inst =
  fold_netdist inst;
  let local = now_local t in
  let b = basis inst ~local in
  match inst.meta.Query.window with
  | Window.Tuples _ -> ()
  | Window.Time { range; slide } ->
    let closing = inst.next_slot - 1 in
    let wend = float_of_int (closing + 1) *. slide in
    let wstart = wend -. range in
    let rb = inst.raw_basis in
    let in_window i = rb.(i) >= wstart -. 1e-9 && rb.(i) < wend -. 1e-9 in
    (* The window's raws are folded newest first. *)
    let window_raws = ref [] in
    for i = 0 to Array.length rb - 1 do
      if in_window i then window_raws := i :: !window_raws
    done;
    let window_raws = !window_raws in
    let index = Index.of_slot ~slide closing in
    let summary =
      match window_raws with
      | [] ->
        Summary.boundary ~index ~identity:inst.op.Op.init ~count:1
          ~age:(b -. ((float_of_int closing +. 0.5) *. slide))
      | raws ->
        (* A payload the operator cannot type is a query fault: drop the
           offending tuple, keep the window (§2.2's non-blocking rule). *)
        let value =
          List.fold_left
            (fun acc i ->
              try inst.op.Op.merge acc (inst.op.Op.lift inst.raw_payload.(i))
              with Value.Type_error _ ->
                bump t Type_faults;
                acc)
            inst.op.Op.init raws
        in
        let newest_slide = List.filter (fun i -> rb.(i) >= wend -. slide -. 1e-9) raws in
        let age_basis =
          match newest_slide with
          | [] -> (float_of_int closing +. 0.5) *. slide
          | rs ->
            List.fold_left (fun acc i -> acc +. rb.(i)) 0.0 rs /. float_of_int (List.length rs)
        in
        let prov =
          List.fold_left (fun acc i -> Summary.merge_prov acc inst.raw_prov.(i)) [] raws
        in
        Summary.make ~index ~value ~count:1 ~age:(b -. age_basis) ~prov ()
    in
    (* Raws that can no longer appear in any future window are dropped. *)
    let next_wstart = wstart +. slide in
    keep_raws inst (fun i -> rb.(i) >= next_wstart -. 1e-9);
    emit_local t inst summary;
    inst.next_slot <- inst.next_slot + 1;
    let next_fire = float_of_int inst.next_slot *. slide in
    inst.tick_timer <- set_timer t ~after:(max 0.001 (next_fire -. b)) inst.on_tick

and emit_tuple_window t inst =
  match inst.meta.Query.window with
  | Window.Time _ -> ()
  | Window.Tuples { range; _ } ->
    let local = now_local t in
    let b = basis inst ~local in
    (* [inject] keeps at most [range] raws, oldest first. *)
    let rb = inst.raw_basis in
    let n = min range (Array.length rb) in
    if n > 0 then begin
      let first = Array.length rb - n in
      let last_basis = ref rb.(first) and value = ref inst.op.Op.init in
      let sum = ref 0.0 and prov = ref [] in
      for i = first to Array.length rb - 1 do
        last_basis := max !last_basis rb.(i);
        (value :=
           try inst.op.Op.merge !value (inst.op.Op.lift inst.raw_payload.(i))
           with Value.Type_error _ ->
             bump t Type_faults;
             !value);
        sum := !sum +. rb.(i);
        prov := Summary.merge_prov !prov inst.raw_prov.(i)
      done;
      let tb = rb.(first) in
      let te = max (tb +. 1e-6) (!last_basis +. 1e-6) in
      let index = Index.make ~tb ~te in
      let age_basis = !sum /. float_of_int n in
      let summary =
        Summary.make ~index ~value:!value ~count:1 ~age:(b -. age_basis) ~prov:!prov ()
      in
      inst.fl.tw_last_te <- te;
      emit_local t inst summary
    end;
    inst.tw_pending <- 0

and boundary_check t inst =
  fold_netdist inst;
  (match inst.meta.Query.window with
  | Window.Time _ -> ()
  | Window.Tuples _ ->
    if (not inst.raw_seen) && inst.fl.tw_last_te > 0.0 then begin
      let b = basis inst ~local:(now_local t) in
      if b > inst.fl.tw_last_te +. 1e-6 then begin
        let index = Index.make ~tb:inst.fl.tw_last_te ~te:b in
        let s =
          Summary.boundary ~index ~identity:inst.op.Op.init ~count:1
            ~age:(b -. ((index.Index.tb +. index.Index.te) /. 2.0))
        in
        inst.fl.tw_last_te <- b;
        emit_local t inst s
      end
    end);
  inst.raw_seen <- false;
  inst.tick_timer <- set_timer t ~after:boundary_period inst.on_tick

and inject t ~stream ?true_slot payload =
  (* Sorted instance order: a tuple-window emit fired from here sends
     messages, so the order across instances is simulation-visible. *)
  Array.iter
    (fun inst ->
      if inst.meta.Query.source = stream then begin
        match
          (try Expr.apply inst.meta.Query.pre payload
           with Value.Type_error _ ->
             bump t Type_faults;
             None)
        with
        | None -> ()
        | Some payload ->
          let b = basis inst ~local:(now_local t) in
          let prov = match true_slot with Some s -> [ (s, 1) ] | None -> [] in
          push_raw inst b payload prov;
          inst.raw_seen <- true;
          (match inst.meta.Query.window with
          | Window.Time _ -> ()
          | Window.Tuples { range; slide } ->
            let n = Array.length inst.raw_basis in
            if n > range then keep_raws inst (fun i -> i >= n - range);
            inst.tw_pending <- inst.tw_pending + 1;
            if inst.tw_pending >= slide then emit_tuple_window t inst)
      end)
    t.v.instances

(* ------------------------------------------------------------------ *)
(* Data arrival. Defined before install so a completed install can
   replay warm-up-buffered summaries through the normal data path.     *)

let relabel_for_mode t inst (s : Summary.t) =
  match inst.meta.Query.mode with
  | Query.Timestamp ->
    (* With timestamps there is no carried age: an operator can only infer
       a tuple's delay from its timestamp — [now - index midpoint]. Under
       relative clock offset this inference is wrong by the offset, which
       is precisely how offset pollutes netDist and stalls windows (§5). *)
    let b = basis inst ~local:(now_local t) in
    let midpoint = (s.index.Index.tb +. s.index.Index.te) /. 2.0 in
    { s with Summary.age = max 0.0 (b -. midpoint) }
  | Query.Syncless -> (
    let b = basis inst ~local:(now_local t) in
    match inst.meta.Query.window with
    | Window.Time { slide; _ } ->
      (* Fig 7: index <- (t_ref - T.age) / slide, a purely local label. *)
      let slot = Index.slot ~slide (b -. s.age) in
      { s with Summary.index = Index.of_slot ~slide slot }
    | Window.Tuples _ ->
      (* Center the interval at the age-implied local instant, keeping its
         duration: the interval endpoints were in the sender's basis. *)
      let d = Index.duration s.index in
      let center = b -. s.age in
      { s with Summary.index = Index.make ~tb:(center -. (d /. 2.0)) ~te:(center +. (d /. 2.0)) })

let already_emitted inst (s : Summary.t) =
  match inst.meta.Query.window with
  | Window.Time { slide; _ } ->
    let slot = Index.slot ~slide (s.index.Index.tb +. (slide /. 2.0)) in
    Fmap.mem inst.emitted slot
  | Window.Tuples _ -> s.index.Index.te <= inst.fl.emitted_te

(* Warm-up (crash-rejoin): a summary for a query we have not (re)installed
   is buffered instead of silently dropped, and the sender is asked for
   the management state immediately — the digest cadence alone leaves a
   rejoined peer dark for up to [reconcile_every] heartbeat periods. *)
let warmup_capture t ~src ~query ~seqno ~tree ~summary ~visited ~path ~ttl_down =
  if not (covers t tbl_removed query seqno || covers t tbl_not_mine query seqno) then begin
    let local = now_local t in
    if gate t tbl_fast_resync query ~now:local ~gap:t.cfg.hb_period then begin
      bump t Fast_resyncs;
      send_msg t ~dst:src
        (Msg.Reconcile_request { installed = installed_triples t; removed = removed_pairs t })
    end;
    if t.cfg.warmup_buffer <= 0 then bump t Warmup_drops
    else begin
      let q =
        match find_cold tbl_warmup t query with
        | Some q -> q
        | None ->
          let q = Queue.create () in
          replace_cold tbl_warmup t query q;
          q
      in
      if Queue.length q >= t.cfg.warmup_buffer then begin
        (* Full: drop the oldest entry — the freshest summaries are the
           ones still inside their windows when the install lands. *)
        ignore (Queue.pop q);
        bump t Warmup_drops
      end;
      Queue.push
        { wu_src = src; wu_seqno = seqno; wu_tree = tree; wu_summary = summary;
          wu_visited = visited; wu_path = path; wu_ttl = ttl_down; wu_at = local }
        q;
      bump t Warmup_buffered
    end
  end

let handle_data t ~src ~query ~seqno ~tree ~summary ~visited ~path ~ttl_down =
  bump t Received;
  match find_inst t query with
  | None ->
    (* Not installed (yet); reconciliation will catch us up. With
       self-healing on, start that reconciliation now and hold the summary
       for replay instead of dropping it. *)
    if t.cfg.self_heal then
      warmup_capture t ~src ~query ~seqno ~tree ~summary ~visited ~path ~ttl_down
  | Some inst ->
    let latency = latency_to t src in
    let s =
      { summary with
        Summary.age = summary.Summary.age +. latency;
        Summary.hops = summary.Summary.hops + 1;
        Summary.hops_max = summary.Summary.hops_max + 1
      }
    in
    let s = relabel_for_mode t inst s in
    (* netDist (§4.3): an EWMA (alpha = 10 %, the paper's footnote) of the
       maximum received age, folded per slide period. On its own a
       max-based estimate diverges under dynamic striping — sibling trees
       can make two nodes each other's parents, so each would wait for the
       other's waits — but the headroom cap on eviction deadlines bounds
       every age in the system, which bounds this estimate too. In
       timestamp mode the age is the timestamp-inferred delay, so offset
       inflates the estimate and with it every wait. *)
    let fl = inst.fl in
    if s.Summary.age > fl.age_max_period then fl.age_max_period <- s.Summary.age;
    if s.Summary.age > fl.netdist_hi then fl.netdist_hi <- s.Summary.age;
    if inst.meta.Query.aggregate = false && t.self <> inst.meta.Query.root then begin
      (* No-aggregation baseline: pass everything through. *)
      let visited =
        Routing.update_visited visited ~tree ~level:inst.view.Query.levels.(tree)
      in
      route_and_send t inst s ~path ~visited ~arrival_tree:tree ~ttl_down ()
    end
    else if already_emitted inst s then begin
      (* Late tuple: pass through toward the root without merging. *)
      bump t Late;
      if t.self = inst.meta.Query.root then () (* window already reported *)
      else begin
        let visited =
          Routing.update_visited visited ~tree ~level:inst.view.Query.levels.(tree)
        in
        route_and_send t inst s ~path ~visited ~arrival_tree:tree ~ttl_down ()
      end
    end
    else ts_insert t inst s

(* Replay buffered summaries once their query's install lands. The age is
   bumped by the buffering delay so syncless relabeling files each one
   into the window it was originally destined for. *)
let replay_warmup t name =
  match find_cold tbl_warmup t name with
  | None -> ()
  | Some q ->
    remove_cold tbl_warmup t name;
    let local = now_local t in
    Queue.iter
      (fun e ->
        bump t Warmup_replayed;
        let summary =
          { e.wu_summary with Summary.age = e.wu_summary.Summary.age +. (local -. e.wu_at) }
        in
        handle_data t ~src:e.wu_src ~query:name ~seqno:e.wu_seqno ~tree:e.wu_tree ~summary
          ~visited:e.wu_visited ~path:e.wu_path ~ttl_down:e.wu_ttl)
      q

(* ------------------------------------------------------------------ *)
(* Install / remove.                                                   *)

(* Only ever called on an instance that is then dropped. *)
let cancel_instance_timers t inst =
  t.rt.cancel_timer inst.eviction_timer;
  t.rt.cancel_timer inst.tick_timer

let remove_local t ~name ~seqno =
  (match find_inst t name with
  | Some inst when inst.meta.Query.seqno <= seqno ->
    cancel_instance_timers t inst;
    drop_inst t name;
    List.iter (release_partner t) (Query.neighbors inst.view);
    invalidate_digest t
  | _ -> ());
  let prev = Option.value (find_cold tbl_removed t name) ~default:min_int in
  if seqno > prev then begin
    replace_cold tbl_removed t name seqno;
    invalidate_digest t
  end;
  remove_cold tbl_warmup t name

let install_local t (meta : Query.meta) view ~install_age =
  let removed_seqno = Option.value (find_cold tbl_removed t meta.name) ~default:min_int in
  if meta.seqno <= removed_seqno then ()
  else begin
    let stale =
      match find_inst t meta.name with
      | Some inst -> inst.meta.Query.seqno >= meta.seqno
      | None -> false
    in
    if not stale then begin
      (match find_inst t meta.name with
      | Some old ->
        cancel_instance_timers t old;
        List.iter (release_partner t) (Query.neighbors old.view);
        drop_inst t meta.name
      | None -> ());
      let local = now_local t in
      let t_ref_base =
        match meta.mode with
        | Query.Syncless -> local -. install_age
        | Query.Timestamp -> 0.0
      in
      let op = t.rt.compile meta.op in
      (* A node's eviction budget scales with its headroom: the deepest
         subtree that can aggregate through it on any tree. This ladders
         evictions structurally — leaves go fast, the root waits longest —
         which the first-arrival timeout alone cannot guarantee. *)
      let headroom =
        Array.to_list (Array.mapi (fun i h -> h - view.Query.levels.(i)) view.Query.heights)
        |> List.fold_left max 0
      in
      let hard_cap =
        let budget = min_timeout +. (float_of_int headroom *. t.cfg.level_wait) in
        match meta.mode with
        | Query.Syncless -> budget
        | Query.Timestamp ->
          (* The headroom ladder is calibrated for age-based timeouts; with
             timestamps the paper's system had no such bound, and its
             latency under offset shows it (Fig 10). A loose cap keeps the
             simulation finite while letting the pathology appear. *)
          budget *. 15.0
      in
      let inst =
        {
          meta;
          view;
          op;
          ts =
            Ts_list.create
              ~extend_boundaries:(not (Window.is_time meta.window))
              ~quiet_guard:t.cfg.quiet_guard ~hard_cap ~op ();
          netdist = Ewma.create ();
          fl =
            {
              netdist_hi = 0.0;
              t_ref_base;
              emitted_te = neg_infinity;
              tw_last_te = 0.0;
              age_max_period = neg_infinity;
              orphaned_since = nan;
            };
          stripe = Rng.int t.rng (max 1 meta.degree);
          emitted = Fmap.create ();
          raw_basis = [||];
          raw_payload = [||];
          raw_prov = [||];
          tw_pending = 0;
          raw_seen = false;
          next_slot = 0;
          eviction_timer = no_timer;
          tick_timer = no_timer;
          on_evict = ignore;
          on_tick = ignore;
        }
      in
      inst.on_evict <- (fun _ -> evict t inst);
      inst.on_tick <-
        (if Window.is_time meta.window then fun _ -> close_slide t inst
         else fun _ -> boundary_check t inst);
      insert_inst t inst;
      List.iter (retain_partner t) (Query.neighbors view);
      invalidate_digest t;
      bump t Installs;
      if !Obs.enabled then
        Obs.trace ~t:local (Obs.Query_install { node = t.self; query = meta.name });
      (match meta.window with
      | Window.Time { slide; _ } ->
        let b = basis inst ~local in
        inst.next_slot <- Index.slot ~slide b + 1;
        let next_fire = float_of_int inst.next_slot *. slide in
        inst.tick_timer <- set_timer t ~after:(max 0.001 (next_fire -. b)) inst.on_tick
      | Window.Tuples _ -> inst.tick_timer <- set_timer t ~after:boundary_period inst.on_tick);
      (* Crash-rejoin warm-up: summaries that arrived while this query was
         uninstalled re-enter the striping rotation now. *)
      remove_cold tbl_fast_resync t meta.name;
      replay_warmup t meta.name
    end
  end

let forward_install t (meta : Query.meta) members edges ~age =
  (* Forward the sub-chunks rooted at each of our chunk children. *)
  let children = Hashtbl.create 8 in
  List.iter
    (fun (c, p) ->
      Hashtbl.replace children p (c :: Option.value (Hashtbl.find_opt children p) ~default:[]))
    edges;
  let my_children = Option.value (Hashtbl.find_opt children t.self) ~default:[] in
  if my_children <> [] then begin
    (* Partition members/edges by owning child subtree in one pass each:
       per-child filters over the full lists are O(children * chunk) and
       dominated install at scale. [owner] maps every node under a chunk
       child to that child; splitting with [List.partition]-style folds
       below preserves the original list order within each sub-chunk, so
       the forwarded wire payloads are byte-identical to the old code. *)
    let owner = Hashtbl.create 64 in
    List.iter
      (fun child ->
        let rec claim n =
          Hashtbl.replace owner n child;
          List.iter claim (Option.value (Hashtbl.find_opt children n) ~default:[])
        in
        claim child)
      my_children;
    let sub_members = Hashtbl.create 8 and sub_edges = Hashtbl.create 8 in
    let push tbl key v =
      Hashtbl.replace tbl key (v :: Option.value (Hashtbl.find_opt tbl key) ~default:[])
    in
    List.iter
      (fun ((n, _) as m) ->
        match Hashtbl.find_opt owner n with
        | Some child -> push sub_members child m
        | None -> ())
      members;
    List.iter
      (fun ((c, p) as e) ->
        match (Hashtbl.find_opt owner c, Hashtbl.find_opt owner p) with
        | Some child, Some child' when child = child' -> push sub_edges child e
        | _ -> ())
      edges;
    List.iter
      (fun child ->
        let members = List.rev (Option.value (Hashtbl.find_opt sub_members child) ~default:[]) in
        let edges = List.rev (Option.value (Hashtbl.find_opt sub_edges child) ~default:[]) in
        send_ctl t ~dst:child (Msg.Install { meta; members; edges; age }))
      my_children
  end

let handle_install t (meta : Query.meta) members edges ~age =
  (match List.assoc_opt t.self members with
  | Some view -> install_local t meta view ~install_age:age
  | None -> ());
  forward_install t meta members edges ~age

let install_query t (meta : Query.meta) treeset =
  if Mortar_overlay.Treeset.root treeset <> t.self then
    invalid_arg "Peer.install_query: peer is not the plan root";
  if meta.Query.root <> t.self then
    invalid_arg "Peer.install_query: meta.root is not this peer";
  replace_cold tbl_plans t meta.Query.name (meta, Some treeset);
  let chunks =
    Query.chunk_plan ~repair_meta:t.cfg.self_heal treeset ~chunks:install_chunks
  in
  List.iter
    (fun (chunk : Query.chunk) ->
      if chunk.entry = t.self then
        handle_install t meta chunk.members chunk.edges ~age:0.0
      else
        send_ctl t ~dst:chunk.entry
          (Msg.Install { meta; members = chunk.members; edges = chunk.edges; age = 0.0 }))
    chunks

let remove_query t ~name =
  match find_cold tbl_plans t name with
  | None | Some (_, None) ->
    invalid_arg "Peer.remove_query: no plan for this query (not the injector)"
  | Some (meta, Some treeset) ->
    let seqno = meta.Query.seqno + 1 in
    let primary = Mortar_overlay.Treeset.tree treeset 0 in
    let children = Mortar_overlay.Tree.children primary t.self in
    (* Tombstone, don't retain: keep the (bumped) seqno lineage so a later
       reinstall under the same name supersedes every straggler, but drop
       the tree set itself — the plan table must not leak the last
       sharer's tree (and its heartbeat-partner obligations) forever. *)
    replace_cold tbl_plans t name ({ meta with Query.seqno }, None);
    remove_cold tbl_result_fwds t name;
    remove_local t ~name ~seqno;
    List.iter (fun c -> send_ctl t ~dst:c (Msg.Remove { name; seqno })) children

(* ------------------------------------------------------------------ *)
(* Reconciliation (§6.1).                                              *)

let request_view t ~name ~root =
  let gap = float_of_int reconcile_every *. t.cfg.hb_period in
  if gate t tbl_pending_views name ~now:(now_local t) ~gap then
    send_ctl t ~dst:root (Msg.View_request { name })

let apply_remote_sets t ~installed ~removed =
  (* IC = theirs.installed - ours.installed - matching local removals. *)
  List.iter
    (fun (name, seqno, root) ->
      let locally_installed =
        match find_inst t name with
        | Some inst -> inst.meta.Query.seqno >= seqno
        | None -> false
      in
      if not (covers t tbl_removed name seqno || locally_installed || covers t tbl_not_mine name seqno)
      then
        if root = t.self then () (* we are the topology server; nothing to fetch *)
        else request_view t ~name ~root)
    installed;
  (* RC = ours.installed intersected with their removals. *)
  List.iter (fun (name, seqno) -> remove_local t ~name ~seqno) removed

let maybe_reconcile t ~src ~remote_digest =
  if remote_digest <> digest t then begin
    let local = now_local t in
    let min_gap = float_of_int reconcile_every *. t.cfg.hb_period in
    if Partner_set.reconcile_due t.v.partners src ~now:local ~min_gap then begin
      bump t Reconciliations;
      if !Obs.enabled then
        Obs.trace ~t:local (Obs.Reconcile_round { node = t.self; partner = src });
      send_msg t ~dst:src
        (Msg.Reconcile_request
           { installed = installed_triples t; removed = removed_pairs t })
    end
  end

(* ------------------------------------------------------------------ *)
(* Failure-driven tree repair (self-healing).                          *)

let mttr_buckets = [| 2.0; 4.0; 8.0; 16.0; 32.0; 64.0; 128.0 |]

(* Re-balance partner refcounts after a view mutation. Refcounts are held
   per distinct neighbor (install retains each once), so the diff must be
   computed over the whole neighbor set, not per edge. *)
let update_partner_refs t ~before ~after =
  List.iter (fun n -> if not (List.mem n after) then release_partner t n) before;
  List.iter (fun n -> if not (List.mem n before) then retain_partner t n) after

(* Adopt a live donor on every tree whose parent is dead. Donor order is
   canonical ({!Mortar_overlay.Sibling.repair_donors}) and the adopted
   partner's liveness window starts now, so a dead donor is probed for one
   failure-detection timeout and then the next candidate is tried —
   convergence is sequential probing, not flooding. Levels are left
   untouched: they only steer the staged routing heuristic, and keeping
   the original labels preserves the visited-level monotonicity argument
   (a relabel could re-admit a tree the tuple already descended in). *)
let attempt_reparent t name inst =
  let view = inst.view in
  let d = Array.length view.Query.parents in
  if Array.length view.Query.grands = d then begin
    let before = Query.neighbors view in
    let changed = ref [] in
    for x = 0 to d - 1 do
      let old = view.Query.parents.(x) in
      if old = Query.no_parent || alive_neighbor t old then ()
      else begin
        let donors =
          Mortar_overlay.Sibling.repair_donors ~self:t.self ~grand:view.Query.grands.(x)
            ~siblings:view.Query.sibs.(x)
        in
        match List.find_opt (fun (c, _) -> c <> old && alive_neighbor t c) donors with
        | None -> ()
        | Some (c, kind) ->
          view.Query.parents.(x) <- c;
          changed := (x, old, c, kind) :: !changed
      end
    done;
    match List.rev !changed with
    | [] -> ()
    | edges ->
      update_partner_refs t ~before ~after:(Query.neighbors view);
      add t Reparent_edges (List.length edges);
      List.iter
        (fun (x, old, c, kind) ->
          (* The donor must learn it has a new child: that restores the
             heartbeat symmetry the liveness judgment depends on, and
             downward (flex-down) reachability into our subtree. *)
          send_ctl t ~dst:c
            (Msg.Adopt { query = name; seqno = inst.meta.Query.seqno; tree = x });
          if !Obs.enabled then
            Obs.trace ~t:(now_local t)
              (Obs.Reparent
                 {
                   node = t.self;
                   query = name;
                   tree = x;
                   from_parent = old;
                   to_parent = c;
                   donor = (match kind with `Grand -> "grand" | `Sib -> "sibling");
                 }))
        edges
  end

let repair_instance t name inst =
  let parents = inst.view.Query.parents in
  let is_root = Array.for_all (fun p -> p = Query.no_parent) parents in
  if not is_root then begin
    let local = now_local t in
    let orphaned =
      Array.for_all (fun p -> p = Query.no_parent || not (alive_neighbor t p)) parents
    in
    let confirmed_parent =
      Array.exists (fun p -> p <> Query.no_parent && confirmed_alive t p) parents
    in
    let since = inst.fl.orphaned_since in
    let orphaned_before = not (Float.is_nan since) in
    if (not orphaned_before) && orphaned then begin
      inst.fl.orphaned_since <- local;
      if !Obs.enabled then begin
        Obs.set_gauge ~scope:(Obs.Node t.self) "peer.blackholed" 1.0;
        Obs.trace ~t:local (Obs.Orphaned { node = t.self; query = name })
      end;
      attempt_reparent t name inst
    end
    else if orphaned_before && orphaned then attempt_reparent t name inst
    else if orphaned_before && confirmed_parent then begin
      (* A repaired (or recovered) parent has actually been heard from:
         the blackhole is closed. MTTR runs from first detection to this
         confirmation, not to the optimistic adoption. *)
      inst.fl.orphaned_since <- nan;
      bump t Repairs;
      if !Obs.enabled then begin
        Obs.set_gauge ~scope:(Obs.Node t.self) "peer.blackholed" 0.0;
        Obs.observe ~buckets:mttr_buckets "peer.repair_mttr" (local -. since)
      end
    end
  end

(* Sweep state that only grows during long churn runs: heartbeat-partner
   entries whose refcount dropped to zero (created by unsolicited
   heartbeats or released by repair/remove) once they have been silent for
   several failure-detection timeouts, and request-gate entries whose
   replies will never come. Removal is pure table maintenance — no sends,
   no RNG draws — and iteration collects into a sorted list first (D3). *)
let sweep_idle t =
  let local = now_local t in
  let horizon = 4.0 *. hb_timeout_factor *. t.cfg.hb_period in
  let swept = Partner_set.sweep t.v.partners ~now:local ~horizon in
  add t Partners_swept swept;
  let sweep_gate sel =
    fold_cold sel t (fun k at acc -> if local -. at > horizon then k :: acc else acc) []
    |> List.sort compare
    |> List.iter (remove_cold sel t)
  in
  sweep_gate tbl_pending_views;
  sweep_gate tbl_fast_resync

(* ------------------------------------------------------------------ *)
(* Heartbeats.                                                         *)

(* Heartbeat targets: the partner set holds one refcount per (instance,
   distinct neighbor) — install retains, remove/repair/adopt release
   through [update_partner_refs] — so [refcount > 0] is exactly "neighbor
   of some installed view", visited in ascending id order (D3). Every
   target gets the same immutable payload. *)
let heartbeat_tick t =
  t.v.hb_counter <- t.v.hb_counter + 1;
  let with_digest = t.v.hb_counter mod reconcile_every = 0 in
  let hb = Msg.Heartbeat { digest = (if with_digest then Some (digest t) else None) } in
  Partner_set.iter_targets (fun dst -> send_msg t ~dst hb) t.v.partners;
  if t.cfg.self_heal then
    (* Sorted instance order: repair decisions send messages, so the order
       across instances is simulation-visible (D3). *)
    Array.iter (fun inst -> repair_instance t inst.meta.Query.name inst) t.v.instances;
  sweep_idle t;
  t.v.hb_timer <- set_timer t ~after:t.cfg.hb_period t.heartbeat

(* ------------------------------------------------------------------ *)
(* Message dispatch.                                                   *)

let rec receive t ~src payload =
  (match payload with
  | Msg.Heartbeat _ ->
    (* An unsolicited heartbeat creates a partner entry, so that the
       sender's liveness is tracked symmetrically: one probe covers the
       create and both liveness stamps. *)
    Partner_set.heartbeat t.v.partners src ~now:(now_local t)
  | Msg.Reliable _ | Msg.Ack _ | Msg.Data _ | Msg.Reconcile_request _ | Msg.Reconcile_reply _
  | Msg.Install _ | Msg.Remove _ | Msg.View_request _ | Msg.View_reply _ | Msg.Result_fwd _
  | Msg.Adopt _ ->
    Partner_set.heard t.v.partners src ~now:(now_local t));
  match payload with
  | Msg.Heartbeat { digest = Some d } -> maybe_reconcile t ~src ~remote_digest:d
  | Msg.Heartbeat { digest = None } -> ()
  | Msg.Reliable { token; inner } ->
    (* Always ack — even a duplicate means our previous ack was lost. *)
    send_msg t ~dst:src (Msg.Ack { token });
    if not (ctl_duplicate t ~src ~token) then receive t ~src inner
  | Msg.Ack { token } -> ctl_ack t ~src ~token
  | Msg.Data { query; seqno; tree; summary; visited; path; ttl_down; digest = remote } ->
    maybe_reconcile t ~src ~remote_digest:remote;
    handle_data t ~src ~query ~seqno ~tree ~summary ~visited ~path ~ttl_down
  | Msg.Reconcile_request { installed; removed } ->
    apply_remote_sets t ~installed ~removed;
    send_msg t ~dst:src
      (Msg.Reconcile_reply { installed = installed_triples t; removed = removed_pairs t })
  | Msg.Reconcile_reply { installed; removed } -> apply_remote_sets t ~installed ~removed
  | Msg.Install { meta; members; edges; age } ->
    let age = age +. latency_to t src in
    handle_install t meta members edges ~age
  | Msg.Remove { name; seqno } ->
    (* Forward down the primary tree before dropping the instance. *)
    (match find_inst t name with
    | Some inst when inst.meta.Query.seqno <= seqno ->
      List.iter
        (fun c -> send_ctl t ~dst:c (Msg.Remove { name; seqno }))
        inst.view.Query.children.(0)
    | _ -> ());
    remove_local t ~name ~seqno
  | Msg.View_request { name } -> (
    match find_cold tbl_plans t name with
    | None -> ()
    | Some (meta, None) ->
      (* Removal tombstone: tell the asker the query no longer includes
         it (a straggler that missed the removal multicast), instead of
         resurrecting a removed plan. *)
      send_ctl t ~dst:src (Msg.View_reply { meta; view = None; age = 0.0 })
    | Some (meta, Some treeset) ->
      let view =
        if Mortar_overlay.Tree.mem (Mortar_overlay.Treeset.tree treeset 0) src then
          Some (Query.view_of_treeset ~repair_meta:t.cfg.self_heal treeset src)
        else None
      in
      (* The query's age, as an install chunk carries it: with age 0 the
         asker's slot grid is out of phase with everyone else's. *)
      let age =
        match find_inst t name with
        | Some inst -> basis inst ~local:(now_local t)
        | None -> 0.0
      in
      send_ctl t ~dst:src (Msg.View_reply { meta; view; age }))
  | Msg.View_reply { meta; view; age } -> (
    remove_cold tbl_pending_views t meta.Query.name;
    match view with
    | Some v -> install_local t meta v ~install_age:(age +. latency_to t src)
    | None ->
      replace_cold tbl_not_mine t meta.Query.name meta.Query.seqno;
      remove_cold tbl_warmup t meta.Query.name)
  | Msg.Result_fwd { query; slot; value; count; age } ->
    bump t Results_fwd_received;
    List.iter
      (fun f -> f { r_query = query; r_slot = slot; r_value = value; r_count = count; r_age = age })
      t.remote_handlers
  | Msg.Adopt { query; seqno; tree } -> (
    (* A repairing orphan re-parented onto us: record it as a child so we
       heartbeat it and can descend into its subtree. Idempotent; ignored
       when the topology generations differ. *)
    match find_inst t query with
    | Some inst
      when inst.meta.Query.seqno = seqno
           && tree >= 0
           && tree < Array.length inst.view.Query.children ->
      let kids = inst.view.Query.children.(tree) in
      if not (List.mem src kids) then begin
        let before = Query.neighbors inst.view in
        inst.view.Query.children.(tree) <- List.sort compare (src :: kids);
        update_partner_refs t ~before ~after:(Query.neighbors inst.view);
        bump t Adoptions
      end
    | _ -> ())

(* ------------------------------------------------------------------ *)
(* Construction and introspection.                                     *)

let create ?(config = default_config) rt ~self ~rng =
  let rec t =
    {
      self;
      rt;
      rng;
      cfg = config;
      v = volatile ();
      ctl_rng = Rng.create (0x51ab5 + (7919 * self));
      next_token = 0;
      result_handlers = [];
      remote_handlers = [];
      counts = Array.make (Array.length counters) 0;
      heartbeat = (fun _ -> heartbeat_tick t);
    }
  in
  (* Desynchronise heartbeat phases across peers. *)
  let phase = Rng.float rng config.hb_period in
  t.v.hb_timer <- set_timer t ~after:phase t.heartbeat;
  t

let on_result t f = t.result_handlers <- f :: t.result_handlers

let on_remote_result t f = t.remote_handlers <- f :: t.remote_handlers

let set_result_forwards t ~query dsts =
  let dsts = List.sort_uniq compare (List.filter (fun d -> d <> t.self) dsts) in
  if dsts = [] then remove_cold tbl_result_fwds t query
  else replace_cold tbl_result_fwds t query dsts

let plan_cached t ~name =
  match find_cold tbl_plans t name with Some (_, Some _) -> true | _ -> false

let installed t = Array.fold_right (fun inst acc -> inst.meta.Query.name :: acc) t.v.instances []

let has_query t name = find_inst t name <> None

let query_seqno t name = Option.map (fun inst -> inst.meta.Query.seqno) (find_inst t name)

let crash t =
  bump t Crashes;
  if !Obs.enabled then Obs.trace ~t:(now_local t) (Obs.Crash { node = t.self });
  Array.iter (cancel_instance_timers t) t.v.instances;
  Option.iter
    (fun c -> Lazy_tbl.iter (fun _ p -> t.rt.cancel_timer p.ctl_timer) c.ctl_pending)
    t.v.cold;
  t.rt.cancel_timer t.v.hb_timer;
  if t.cfg.self_heal && !Obs.enabled then
    Obs.set_gauge ~scope:(Obs.Node t.self) "peer.blackholed" 0.0;
  t.v <- volatile ()

(* Cancel first: a restart of a process that was never crashed must not
   leave it two heartbeat timers. *)
let restart t =
  t.rt.cancel_timer t.v.hb_timer;
  t.v.hb_timer <- set_timer t ~after:t.cfg.hb_period t.heartbeat

let stats t =
  let c = count t in
  {
    tuples_late = c Late;
    tuples_dropped = c Dropped;
    reconciliations = c Reconciliations;
    ctl_retransmits = c Ctl_retransmits;
    ctl_abandoned = c Ctl_abandoned;
    repairs = c Repairs;
    warmup_dropped = c Warmup_drops;
  }

let ts_length t ~query =
  Option.map (fun inst -> Ts_list.length inst.ts) (find_inst t query)

let ctl_in_flight t = match t.v.cold with None -> 0 | Some c -> Lazy_tbl.length c.ctl_pending

let current_parents t ~query =
  Option.map (fun inst -> Array.copy inst.view.Query.parents) (find_inst t query)

let partner_count t = Partner_set.length t.v.partners

let census_parts t =
  let insts = Array.to_list t.v.instances in
  let each f = List.map (fun inst -> Obj.repr (f inst)) insts in
  let v = t.v in
  [ ("TS lists", each (fun i -> i.ts));
    ("emitted maps", each (fun i -> i.emitted));
    ("node views", each (fun i -> i.view));
    ("compiled operators", each (fun i -> i.op));
    ("instance records", each Fun.id);
    ("partner set", [ Obj.repr v.partners ]);
    ("instance storage", [ Obj.repr v.instances ]);
    ("cold tables", [ Obj.repr v.cold ]);
    ("volatile record", [ Obj.repr v ]);
    ("peer record, runtime, RNGs, counts", [ Obj.repr t ]);
    ("result handlers", [ Obj.repr t.result_handlers; Obj.repr t.remote_handlers ]) ]
