// Generated by the Green-Marl → Pregel compiler from procedure "degree_stats".
// Target: GPS (master.compute + vertex.compute extended Pregel API).

class Message implements Writable {
    public void write(DataOutput out) throws IOException {
        
    }
    public void readFields(DataInput in) throws IOException {
        
    }
}

class DegreeStatsVertexValue implements Writable {
    long indeg;
    long _t2;
    int[] in_nbrs; // §4.3 incoming-neighbor list (when used)
    public void write(DataOutput out) throws IOException {
        out.writeLong(indeg);
        out.writeLong(_t2);
    }
    public void readFields(DataInput in) throws IOException {
        indeg = in.readLong();
        _t2 = in.readLong();
    }
}

class DegreeStatsMaster extends Master {
    int _state = 0;
    long mx;
    long _r0;
    
    public void compute(int superstepNo) {
        while (true) {
            switch (_state) {
                case 0: { // vertex-parallel state "state0"
                    getGlobalObjectMap().put("_state", new IntOverwrite(0));
                    _state = 1; return; // run vertex.compute this superstep
                }
                case 1: { // master block
                    _state = 2; break;
                }
                case 2: { // vertex-parallel state "state1_recv"
                    getGlobalObjectMap().put("_state", new IntOverwrite(2));
                    _state = 3; return; // run vertex.compute this superstep
                }
                case 3: { // master block
                    _state = 4; break;
                }
                case 4: { // master block
                    mx = 0L;
                    _r0 = -9223372036854775808L;
                    _state = 5; break;
                }
                case 5: { // master block
                    _state = 6; break;
                }
                case 6: { // master block
                    if (getGlobalObjectMap().hasUpdates("_r0_max=")) {
                        _r0 = getGlobalObjectMap().get("_r0_max=").getValue();
                    }
                    _state = 7; break;
                }
                case 7: { // master block
                    mx = _r0;
                    setResult(mx);
                    haltComputation(); return;
                    haltComputation(); return;
                }
            }
        }
    }
}

class DegreeStatsVertex extends Vertex<DegreeStatsVertexValue, Message> {
    public void compute(Iterable<Message> messages, int superstepNo) {
        int _state = ((IntOverwrite) getGlobalObjectMap().get("_state")).getValue();
        switch (_state) {
            case 0: { // state0
                getValue()._t2 = 0L;
                for (int e = 0; e < getNeighborsCount(); e++) {
                    Message m = new Message();
                    sendMessage(getNeighborId(e), m);
                }
                break;
            }
            case 2: { // state1_recv
                for (Message m : messages) {
                    getValue()._t2 += 1L;
                }
                getValue().indeg = getValue()._t2;
                getGlobalObjectMap().put("_r0_max=", new Reduce(getValue().indeg));
                break;
            }
        }
    }
}
