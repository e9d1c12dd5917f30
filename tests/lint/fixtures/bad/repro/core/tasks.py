"""Cross-file worker helper: reached from pipeline._TASK_RUNNERS."""

_COUNTS = []


def helper_task(state, callbacks, extra):
    _COUNTS.append(len(callbacks))
    return state, callbacks, extra
