"""Every solidyn exception survives a pickle round trip, as an error of the
product pair run does on its way back from the child process."""

import inspect
import pickle

import pytest

from solidyn import errors

CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
           if issubclass(cls, Exception) and cls.__module__ == errors.__name__]


def test_the_round_trip_sees_every_class():
    assert len(CLASSES) == 9
    assert sum(issubclass(cls, errors.TrajectoryAbortError)
               for cls in CLASSES) == 5


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_round_trips_through_pickle(cls):
    if issubclass(cls, errors.TrajectoryAbortError):
        err = cls("node encounter at t=0.5 (trajectory 1)", 0.498)
    else:
        err = cls("non-finite field after step 3")
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err)
    assert back.args == err.args
    assert getattr(back, "last_valid_time", None) \
        == getattr(err, "last_valid_time", None)
