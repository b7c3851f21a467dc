(** The Wi-Fi device-tracking workload of §7.4.

    The paper replays Jigsaw traces from 188 sniffers in the UCSD CS
    building while a user walks the four floors in an L, downloading a
    file; a three-line Mortar query ([select] on MAC, [topk k=3] on RSSI,
    custom [trilat]) recovers the L-shaped path. Without the proprietary
    traces we synthesise the same signal: sniffers on a grid over an
    L-shaped floor plan, a scripted walk, and a log-distance path-loss
    model with shadowing noise — every element the query path exercises.

    Frames are records
    [{mac; rssi; x; y; floor}] where [x, y, floor] locate the {e sniffer}
    that captured the frame. *)

type sniffer = { x : float; y : float; floor : int }

val building_sniffers : unit -> sniffer array
(** Sniffer grid over an L-shaped floor plan (two 60 m x 15 m wings):
    4 floors, 47 sniffers per floor = 188 total. *)

val l_path : t:float -> duration:float -> float * float * int
(** The scripted walk: position (x, y, floor) at time [t] of a walk of
    total [duration] seconds that descends from floor 3 to floor 0 while
    tracing the L on each floor. *)

val rssi :
  Mortar_util.Rng.t ->
  sniffer:sniffer ->
  x:float ->
  y:float ->
  floor:int ->
  float option
(** Received signal strength (dBm) of a frame transmitted at
    [(x, y, floor)]: log-distance path loss (exponent 2.7, -40 dBm at 1 m),
    12 dB per floor of separation, gaussian shadowing (sigma 4 dB). [None]
    when below the -90 dBm sensitivity floor. *)

val frame :
  Mortar_util.Rng.t ->
  sniffer:sniffer ->
  mac:string ->
  x:float ->
  y:float ->
  floor:int ->
  Mortar_core.Value.t option
(** The frame record a sniffer would emit for this transmission, if it
    hears it. *)

val estimate_distance : float -> float
(** Invert the path-loss model: expected distance in metres for an RSSI. *)

val trilaterate : (float * float * float) list -> (float * float) option
(** [(x, y, rssi)] observations to a position estimate: an
    inverse-distance-squared weighted centroid over the loudest
    observations (the paper's "simple trilateration"; it also could not
    distinguish floors and plotted a single plane). [None] without
    observations. *)

val register_trilat : unit -> unit
(** Register the [trilat] operator with {!Mortar_core.Op}: partials are
    the top-3-by-RSSI frame lists, finalized to a record
    [{x; y; n}] with the position estimate. Idempotent. *)
