"""Worker fixtures: every DET10x rule fires where the tests assert."""

from .tasks import helper_task

_SHARED_CACHE = {}


def _run_score_task(state, data):
    global _MODE
    _SHARED_CACHE["last"] = data
    callbacks = []
    for name in data:
        callbacks.append(lambda: name)
    return helper_task(state, callbacks, None)


_TASK_RUNNERS = {
    "score": _run_score_task,
}
