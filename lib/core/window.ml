type t =
  | Time of { range : float; slide : float }
  | Tuples of { range : int; slide : int }

let time ~range ~slide =
  if slide <= 0.0 || slide > range then invalid_arg "Window.time: need 0 < slide <= range";
  Time { range; slide }

let tuples ~range ~slide =
  if slide <= 0 || slide > range then invalid_arg "Window.tuples: need 0 < slide <= range";
  Tuples { range; slide }

let tumbling s = time ~range:s ~slide:s

let is_time = function Time _ -> true | Tuples _ -> false

let slide_seconds = function
  | Time { slide; _ } -> slide
  | Tuples _ -> invalid_arg "Window.slide_seconds: tuple window"
