import pytest


class KernelRows:
    """Counts the coalitions that reach ``game``'s kernel from now on: every
    row passed to the instance's ``_values``, plus one for every null-padded
    row passed to its ``_padded_value``. The count is taken at the kernel,
    apart from any count a run reports, so budget tests compare the two.
    ``calls`` counts the calls of ``_values``."""

    def __init__(self, game):
        self.rows = self.calls = 0
        values, padded = game._values, game._padded_value

        def counted_values(masks):
            self.rows += len(masks)
            self.calls += 1
            return values(masks)

        def counted_padded(*args, **kwargs):
            self.rows += 1
            return padded(*args, **kwargs)

        game._values, game._padded_value = counted_values, counted_padded


@pytest.fixture(scope="session")
def kernel_rows():
    """``kernel_rows(game)`` starts a :class:`KernelRows` count on ``game``.
    Session-scoped, since it holds no state, so Hypothesis tests may use it."""
    return KernelRows
