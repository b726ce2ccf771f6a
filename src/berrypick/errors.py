"""Exception types shared across the pipeline."""


class BerrypickError(Exception):
    """Base class for all library errors."""


class ParameterError(BerrypickError, ValueError):
    """An argument violates an operation's contract."""


class ContractError(BerrypickError):
    """An internal guarantee broke: a planned trajectory crosses an occupied
    cell of the grid it was planned on."""


class InsufficientDataError(BerrypickError):
    """Too few points to attempt the requested estimate."""


class RegistrationError(BerrypickError):
    """Shape alignment failed (no usable correspondences)."""


class NoRipeTargetError(BerrypickError):
    """Scene contains no ripe grasp candidate."""


class GeometryError(BerrypickError):
    """Degenerate geometric configuration."""


class SceneGenerationError(BerrypickError):
    """Could not realize a scene layout within the retry budget."""


class InputError(BerrypickError):
    """Malformed or missing user-supplied input (CLI arguments, config, files)."""


class StorageError(BerrypickError, OSError):
    """Reading or writing an artifact file failed."""
