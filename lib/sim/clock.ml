type t = { offset : float; skew : float }

let synchronized = { offset = 0.0; skew = 0.0 }

let create ?(offset = 0.0) ?(skew = 0.0) () = { offset; skew }

let local_time t ~now = (now *. (1.0 +. t.skew)) +. t.offset

let offset t = t.offset

let skew t = t.skew

(* Mixture calibrated to the PlanetLab observations cited in §5: most nodes
   are well synchronized; a fifth are off by 0.5 s or more; a handful are off
   by thousands of seconds (dead NTP). Offsets are signed. *)
let planetlab_offsets rng ~scale ~n =
  let draw () =
    let sign = if Mortar_util.Rng.bool rng then 1.0 else -1.0 in
    let u = Mortar_util.Rng.float rng 1.0 in
    let magnitude =
      if u < 0.60 then Mortar_util.Rng.float rng 0.1 (* tight NTP sync *)
      else if u < 0.80 then Mortar_util.Rng.uniform rng 0.1 0.5
      else if u < 0.99 then Mortar_util.Rng.pareto rng ~xm:0.5 ~alpha:1.2
      else Mortar_util.Rng.uniform rng 100.0 4000.0 (* dead NTP tail *)
    in
    sign *. magnitude *. scale
  in
  Array.init n (fun _ -> draw ())

let planetlab_skews rng ~n =
  Array.init n (fun _ -> Mortar_util.Rng.gaussian rng ~mu:0.0 ~sigma:30e-6)
