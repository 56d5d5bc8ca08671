"""Exception types shared across the package; the CLI treats any other as a bug."""


class DataError(ValueError):
    """Invalid input: bad counts, a malformed table, an argument outside its domain."""


class NonexistenceError(ValueError):
    """The requested quantity does not exist for this input, e.g. a sceptical
    prior for a non-significant finding, or it lies outside the float range."""
