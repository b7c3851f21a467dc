let has_caller x = x

type kind = Built_outside
