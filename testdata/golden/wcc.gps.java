// Generated by the Green-Marl → Pregel compiler from procedure "wcc".
// Target: GPS (master.compute + vertex.compute extended Pregel API).

class Message implements Writable {
    byte type;
    long f0; // raw 64-bit slot (long/double/boolean/vertex-id)
    public void write(DataOutput out) throws IOException {
        out.writeByte(type);
        switch (type) {
            case 0: out.writeInt((int) f0); break;
            case 1: out.writeLong(f0); break;
            case 2: out.writeLong(f0); break;
        }
    }
    public void readFields(DataInput in) throws IOException {
        type = in.readByte();
        switch (type) {
            case 0: f0 = in.readInt(); break;
            case 1: f0 = in.readLong(); break;
            case 2: f0 = in.readLong(); break;
        }
    }
}

class WccVertexValue implements Writable {
    long comp;
    long comp_nxt;
    int[] in_nbrs; // §4.3 incoming-neighbor list (when used)
    public void write(DataOutput out) throws IOException {
        out.writeLong(comp);
        out.writeLong(comp_nxt);
    }
    public void readFields(DataInput in) throws IOException {
        comp = in.readLong();
        comp_nxt = in.readLong();
    }
}

class WccMaster extends Master {
    int _state = 0;
    boolean fin;
    boolean _is_first1;
    
    public void compute(int superstepNo) {
        while (true) {
            switch (_state) {
                case 0: { // vertex-parallel state "in_nbr_send"
                    getGlobalObjectMap().put("_state", new IntOverwrite(0));
                    _state = 1; return; // run vertex.compute this superstep
                }
                case 1: { // vertex-parallel state "in_nbr_collect"
                    getGlobalObjectMap().put("_state", new IntOverwrite(1));
                    _state = 2; return; // run vertex.compute this superstep
                }
                case 2: { // master block
                    _state = 3; break;
                }
                case 3: { // master block
                    fin = false;
                    _state = 14; break;
                }
                case 4: { // master block
                    _state = (!fin) ? 5 : 11; break;
                }
                case 5: { // vertex-parallel state "state5"
                    getGlobalObjectMap().put("_state", new IntOverwrite(5));
                    getGlobalObjectMap().put("_is_first1", new BooleanOverwrite(_is_first1));
                    _state = 6; return; // run vertex.compute this superstep
                }
                case 6: { // master block
                    _state = 12; break;
                }
                case 7: { // master block
                    fin = true;
                    _state = 8; break;
                }
                case 8: { // master block
                    _state = 9; break;
                }
                case 9: { // master block
                    if (getGlobalObjectMap().hasUpdates("fin_&=")) {
                        fin = getGlobalObjectMap().get("fin_&=").getValue();
                    }
                    _state = 10; break;
                }
                case 10: { // master block
                    _state = 4; break;
                }
                case 11: { // master block
                    haltComputation(); return;
                }
                case 12: { // master block
                    _state = (_is_first1) ? 13 : 7; break;
                }
                case 13: { // master block
                    _is_first1 = false;
                    _state = 5; break;
                }
                case 14: { // master block
                    _is_first1 = true;
                    _state = 4; break;
                }
            }
        }
    }
}

class WccVertex extends Vertex<WccVertexValue, Message> {
    public void compute(Iterable<Message> messages, int superstepNo) {
        int _state = ((IntOverwrite) getGlobalObjectMap().get("_state")).getValue();
        switch (_state) {
            case 0: { // in_nbr_send
                for (int e = 0; e < getNeighborsCount(); e++) {
                    Message m = new Message();
                    m.f0 = getId();
                    sendMessage(getNeighborId(e), m);
                }
                break;
            }
            case 1: { // in_nbr_collect
                getValue().in_nbrs = collectSenderIds(messages);
                getValue().comp = getId();
                getValue().comp_nxt = getId();
                break;
            }
            case 5: { // state5
                boolean _is_first1 = ((BooleanOverwrite) getGlobalObjectMap().get("_is_first1")).getValue();
                if (!_is_first1) {
                    for (Message m : messages) {
                        if (m.type == 1) {
                            getValue().comp_nxt = Math.min(getValue().comp_nxt, m.f0);
                        }
                    }
                    for (Message m : messages) {
                        if (m.type == 2) {
                            getValue().comp_nxt = Math.min(getValue().comp_nxt, m.f0);
                        }
                    }
                    if ((getValue().comp_nxt < getValue().comp)) {
                        getValue().comp = getValue().comp_nxt;
                        getGlobalObjectMap().put("fin_&=", new Reduce(false));
                    }
                }
                for (int e = 0; e < getNeighborsCount(); e++) {
                    Message m = new Message();
                    m.f0 = getValue().comp;
                    sendMessage(getNeighborId(e), m);
                }
                for (int i = 0; i < getValue().in_nbrs.length; i++) {
                    Message m = new Message();
                    m.f0 = getValue().comp;
                    sendMessage(getValue().in_nbrs[i], m);
                }
                break;
            }
        }
    }
}
