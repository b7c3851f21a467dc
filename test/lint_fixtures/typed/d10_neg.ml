(* D10 negative: configuration passed explicitly is fine, a same-named
   function from another module is not an environment read, and a
   deliberate read can be suppressed with a reason. *)

type config = { verbose : bool }

let verbose ~config = config.verbose

let getenv tbl key = Hashtbl.find_opt tbl key

let lookup tbl = getenv tbl "HOME"

let home () =
  (* lint: allow D10 fixture; a one-off tool that must honour $HOME *)
  Sys.getenv "HOME"
