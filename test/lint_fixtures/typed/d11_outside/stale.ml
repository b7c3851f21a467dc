let has_caller x = x
