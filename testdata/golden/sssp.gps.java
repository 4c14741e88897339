// Generated by the Green-Marl → Pregel compiler from procedure "sssp".
// Target: GPS (master.compute + vertex.compute extended Pregel API).

class Message implements Writable {
    long f0; // raw 64-bit slot (long/double/boolean/vertex-id)
    public void write(DataOutput out) throws IOException {
        out.writeLong(f0);
    }
    public void readFields(DataInput in) throws IOException {
        f0 = in.readLong();
    }
}

class SsspVertexValue implements Writable {
    long dist;
    boolean updated;
    long dist_nxt;
    int[] in_nbrs; // §4.3 incoming-neighbor list (when used)
    public void write(DataOutput out) throws IOException {
        out.writeLong(dist);
        out.writeBoolean(updated);
        out.writeLong(dist_nxt);
    }
    public void readFields(DataInput in) throws IOException {
        dist = in.readLong();
        updated = in.readBoolean();
        dist_nxt = in.readLong();
    }
}

class SsspMaster extends Master {
    int _state = 0;
    int root;
    boolean fin;
    boolean _r3;
    boolean _is_first1;
    
    public void compute(int superstepNo) {
        while (true) {
            switch (_state) {
                case 0: { // master block
                    fin = false;
                    _state = 1; break;
                }
                case 1: { // vertex-parallel state "state0"
                    getGlobalObjectMap().put("_state", new IntOverwrite(1));
                    getGlobalObjectMap().put("root", new IntOverwrite(root));
                    _state = 2; return; // run vertex.compute this superstep
                }
                case 2: { // master block
                    _state = 3; break;
                }
                case 3: { // master block
                    _state = 17; break;
                }
                case 4: { // master block
                    _state = (!fin) ? 5 : 14; break;
                }
                case 5: { // master block
                    fin = true;
                    _state = 6; break;
                }
                case 6: { // vertex-parallel state "state5"
                    getGlobalObjectMap().put("_state", new IntOverwrite(6));
                    getGlobalObjectMap().put("_is_first1", new BooleanOverwrite(_is_first1));
                    _state = 7; return; // run vertex.compute this superstep
                }
                case 7: { // master block
                    _state = 15; break;
                }
                case 8: { // master block
                    _state = 9; break;
                }
                case 9: { // master block
                    _r3 = false;
                    _state = 10; break;
                }
                case 10: { // master block
                    _state = 11; break;
                }
                case 11: { // master block
                    if (getGlobalObjectMap().hasUpdates("_r3_|=")) {
                        _r3 = getGlobalObjectMap().get("_r3_|=").getValue();
                    }
                    _state = 12; break;
                }
                case 12: { // master block
                    fin = !_r3;
                    _state = 13; break;
                }
                case 13: { // master block
                    _state = 4; break;
                }
                case 14: { // master block
                    haltComputation(); return;
                }
                case 15: { // master block
                    _state = (_is_first1) ? 16 : 8; break;
                }
                case 16: { // master block
                    _is_first1 = false;
                    _state = 6; break;
                }
                case 17: { // master block
                    _is_first1 = true;
                    _state = 4; break;
                }
            }
        }
    }
}

class SsspVertex extends Vertex<SsspVertexValue, Message> {
    public void compute(Iterable<Message> messages, int superstepNo) {
        int _state = ((IntOverwrite) getGlobalObjectMap().get("_state")).getValue();
        switch (_state) {
            case 1: { // state0
                int root = ((IntOverwrite) getGlobalObjectMap().get("root")).getValue();
                getValue().dist = ((getId() == root) ? 0L : Long.MAX_VALUE);
                getValue().updated = ((getId() == root) ? true : false);
                getValue().dist_nxt = getValue().dist;
                break;
            }
            case 6: { // state5
                boolean _is_first1 = ((BooleanOverwrite) getGlobalObjectMap().get("_is_first1")).getValue();
                if (!_is_first1) {
                    for (Message m : messages) {
                        getValue().dist_nxt = Math.min(getValue().dist_nxt, m.f0);
                    }
                    getValue().updated = (getValue().dist_nxt < getValue().dist);
                    if (getValue().updated) {
                        getValue().dist = getValue().dist_nxt;
                    }
                    getValue().dist_nxt = getValue().dist;
                    if (getValue().updated) {
                        getGlobalObjectMap().put("_r3_|=", new Reduce(true));
                    }
                }
                if (getValue().updated) {
                    for (int e = 0; e < getNeighborsCount(); e++) {
                        Message m = new Message();
                        m.f0 = (getValue().dist + getEdgeValue(e).len);
                        sendMessage(getNeighborId(e), m);
                    }
                }
                break;
            }
        }
    }
}
