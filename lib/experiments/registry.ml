(* Every experiment, in figure order: the list the CLI lists and runs. *)

let all =
  [
    Fig01.experiment;
    Fig09_10.experiment_09;
    Fig09_10.experiment_10;
    Fig11.experiment;
    Fig12.experiment;
    Fig13.experiment;
    Fig14.experiment;
    Fig15.experiment;
    Fig16.experiment;
    Fig17.experiment;
    Fig18.experiment;
  ]
  @ Ablations.experiments
  @ [ Churn.experiment; Soak.experiment; Mlq.experiment; Sketch.experiment ]

let find id = List.find_opt (fun (e : Common.experiment) -> String.equal e.id id) all
